(* Timing wrappers at the public boundaries of the protocol and network
   layers.  Each wrapper keeps the wrapped value's observable behaviour and
   only opens a {!Tracer} span around the delegated call. *)

module M = Wb_model
module Conn = Wb_net.Conn
module Wire = Wb_net.Wire

(* A registry protocol with the same name, model, bound and traits whose
   four hooks are timed. *)
let timed_protocol (module P : M.Protocol.S) : M.Protocol.t =
  (module struct
    let name = P.name
    let model = P.model
    let message_bound = P.message_bound
    let traits = P.traits

    type local = P.local

    (* Spans are opened inline rather than through [Tracer.span]: a
       closure per hook call would add allocation to the kernel's share. *)
    let init view =
      Tracer.enter Init;
      match P.init view with
      | r ->
        Tracer.leave ();
        r
      | exception e ->
        Tracer.leave ();
        raise e

    let wants_to_activate view board local =
      Tracer.enter Activate;
      match P.wants_to_activate view board local with
      | r ->
        Tracer.leave ();
        r
      | exception e ->
        Tracer.leave ();
        raise e

    let compose view board local =
      Tracer.enter Compose;
      match P.compose view board local with
      | r ->
        Tracer.leave ();
        r
      | exception e ->
        Tracer.leave ();
        raise e

    let output ~n board =
      Tracer.enter Output;
      match P.output ~n board with
      | r ->
        Tracer.leave ();
        r
      | exception e ->
        Tracer.leave ();
        raise e
  end)

(* What one session's connections carried, for the [net.*] counts and the
   codec replay. *)
type capture = {
  mutable frames : int;
  mutable rpcs : int;
  mutable delta_msgs : int;
  mutable sent : (Wb_obs.Span.context option * Wire.frame) list;
  mutable received : (Wb_obs.Span.context option * Wire.frame) list;
  mutable inner : Conn.t list;
}

let fresh_capture () =
  { frames = 0; rpcs = 0; delta_msgs = 0; sent = []; received = []; inner = [] }

let note_sent cap ctx frame =
  cap.frames <- cap.frames + 1;
  cap.sent <- (ctx, frame) :: cap.sent;
  match frame with
  | Wire.Activate_query _ | Wire.Compose_request _ -> cap.rpcs <- cap.rpcs + 1
  | Wire.Board_delta { messages; _ } ->
    cap.delta_msgs <- cap.delta_msgs + List.length messages
  | _ -> ()

(* A [Remote.run_loopback ~wrap] interposer: every send and receive on the
   node's connection is one [Conn] span.  Over the loopback a send runs the
   client (codec, replica update, protocol hook) inline, so protocol spans
   nest inside connection spans. *)
let timed_conn cap (_ : int) inner =
  cap.inner <- inner :: cap.inner;
  Conn.make_ctx ~peer:(Conn.peer inner)
    ~send:(fun ctx frame ->
      let r = Tracer.span Conn (fun () -> Conn.send ?ctx inner frame) in
      if Result.is_ok r then note_sent cap ctx frame;
      r)
    ~recv:(fun () ->
      let r = Tracer.span Conn (fun () -> Conn.recv_ctx inner) in
      (match r with
      | Ok (frame, ctx) ->
        cap.frames <- cap.frames + 1;
        cap.received <- (ctx, frame) :: cap.received
      | Error _ -> ());
      r)
    ~close:(fun () -> Conn.close inner)

let wire_bytes cap =
  List.fold_left (fun acc c -> acc + Conn.bytes_sent c + Conn.bytes_received c) 0 cap.inner

(* Replay the codec on the captured frames: one encode and one decode per
   frame, which is what the loopback transport does to every frame it
   carries.  Returns nanoseconds spent. *)
let replay_codec cap =
  let frames = List.rev_append cap.sent cap.received in
  let t0 = Tracer.now_ns () in
  List.iter
    (fun (ctx, frame) ->
      match Wire.decode_ctx (Wire.encode ?ctx frame) with
      | Ok _ -> ()
      | Error e -> failwith ("codec replay: " ^ Wire.error_to_string e))
    frames;
  Tracer.now_ns () - t0
