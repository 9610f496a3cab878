type 'a t = {
  lock : Mutex.t;
  mutable bottom : 'a list; (* owner end, newest first *)
  mutable top : 'a list; (* thief end, oldest first *)
  mutable size : int;
}

let create () = { lock = Mutex.create (); bottom = []; top = []; size = 0 }

let size t = Sync.with_lock t.lock (fun () -> t.size)

let push t x =
  Sync.with_lock t.lock (fun () ->
      t.bottom <- x :: t.bottom;
      t.size <- t.size + 1)

(* Split [l] into its first [length / 2] elements and the reversed rest.  An
   empty end refills with half of the other, never all of it, so
   alternating pops and steals cannot move the whole deque back and forth. *)
let halve l =
  let h = List.length l / 2 in
  (List.filteri (fun i _ -> i < h) l, List.rev (List.filteri (fun i _ -> i >= h) l))

let pop t =
  Sync.with_lock t.lock (fun () ->
      let bottom =
        match t.bottom with
        | [] ->
          let older, newer = halve t.top in
          t.top <- older;
          newer
        | l -> l
      in
      match bottom with
      | x :: rest ->
        t.bottom <- rest;
        t.size <- t.size - 1;
        Some x
      | [] -> None)

let steal t =
  Sync.with_lock t.lock (fun () ->
      let top =
        match t.top with
        | [] ->
          let newer, older = halve t.bottom in
          t.bottom <- newer;
          older
        | l -> l
      in
      match top with
      | x :: rest ->
        t.top <- rest;
        t.size <- t.size - 1;
        Some x
      | [] -> None)
