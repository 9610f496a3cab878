type t = { lock : Mutex.t; digests : (int, unit) Hashtbl.t; limit : int }

let create ?(limit = 1_000_000) () =
  { lock = Mutex.create (); digests = Hashtbl.create 64; limit = max 1 limit }

let add t digest =
  Sync.with_lock t.lock (fun () ->
      if Hashtbl.mem t.digests digest then `Present
      else if Hashtbl.length t.digests >= t.limit then `Full
      else begin
        Hashtbl.add t.digests digest ();
        `Added
      end)

let mem t digest = Sync.with_lock t.lock (fun () -> Hashtbl.mem t.digests digest)

let cardinal t = Sync.with_lock t.lock (fun () -> Hashtbl.length t.digests)

let limit t = t.limit
