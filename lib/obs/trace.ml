type t = { emit : Event.t -> unit; close : unit -> unit; mutable closed : bool }

let emit t ev = if not t.closed then t.emit ev

let close t =
  if not t.closed then begin
    t.closed <- true;
    t.close ()
  end

let of_fn ?(close = fun () -> ()) emit = { emit; close; closed = false }

let null = of_fn (fun _ -> ())

let tee sinks =
  of_fn
    ~close:(fun () -> List.iter close sinks)
    (fun ev -> List.iter (fun s -> emit s ev) sinks)

let collector () =
  let events = ref [] in
  let sink = of_fn (fun ev -> events := ev :: !events) in
  (sink, fun () -> List.rev !events)

module Ring = struct
  type buffer = {
    slots : Event.t option array;
    mutable next : int;  (* total events ever emitted; slot = next mod capacity *)
    mutable dropped : int;
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Trace.Ring.create: capacity must be positive";
    { slots = Array.make capacity None; next = 0; dropped = 0 }

  let capacity b = Array.length b.slots

  let push b ev =
    if b.next >= capacity b then b.dropped <- b.dropped + 1;
    b.slots.(b.next mod capacity b) <- Some ev;
    b.next <- b.next + 1

  let sink b = of_fn (push b)

  let length b = min b.next (capacity b)

  let dropped b = b.dropped

  let to_list b =
    let cap = capacity b in
    let len = length b in
    let first = b.next - len in
    List.init len (fun i ->
        match b.slots.((first + i) mod cap) with
        | Some ev -> ev
        | None -> assert false)

  let clear b =
    Array.fill b.slots 0 (capacity b) None;
    b.next <- 0;
    b.dropped <- 0
end

let jsonl_writer oc =
  of_fn
    ~close:(fun () -> flush oc)
    (fun ev ->
      Json.to_channel oc (Event.to_json ev);
      output_char oc '\n')
