(* Tier A fixture: raw mutex ops, and a blocking call under the lock. *)
let m = Mutex.create ()

let raw_section () =
  Mutex.lock m;
  Mutex.unlock m

let blocking_inside fd buf =
  Wb_support.Sync.with_lock m (fun () -> Unix.read fd buf 0 1)
