module M = Wb_model
module G = Wb_graph.Graph
module Obs = Wb_obs

type fault = Transport of Conn.fault | Confused of string

(* Where in the kernel's hook stream a node died — the coordinate a
   deterministic replay ([Wb_chaos.Replay]) needs to kill the same node at
   the same point of an in-process execution. *)
type site =
  | Hook of int  (** during its [k]-th hook invocation (activate or compose). *)
  | Post_write  (** the WRITE-GRANT after its append failed. *)
  | Teardown  (** during the final board sync / RUN-END. *)

type death = { node : int; site : site }

let site_to_string = function
  | Hook k -> Printf.sprintf "hook:%d" k
  | Post_write -> "post-write"
  | Teardown -> "teardown"

type config = {
  protocol : M.Protocol.t;
  graph : Wb_graph.Graph.t;
  adversary : M.Adversary.t;
  max_rounds : int option;
  trace : Obs.Trace.t option;
  parent : Obs.Span.context option;
}

type result = { run : M.Engine.run; faults : (int * fault) list; deaths : death list }

let fault_to_string = function
  | Transport f -> Conn.fault_to_string f
  | Confused msg -> "confused peer: " ^ msg

let m_sessions = Obs.Metrics.counter ~help:"referee sessions completed" "net.sessions"

let m_outcome tag = Obs.Metrics.counter ~help:"referee sessions by outcome" ("net.sessions." ^ tag)

let m_faulted =
  Obs.Metrics.counter ~help:"referee sessions that recorded a node fault" "net.sessions.faulted"

(* Wire-overhead accounting: board bits carried vs. wire bytes spent
   carrying them, summed over each session's connections at teardown.  The
   gauge is the last session's ratio in percent (wire bits / board bits
   x 100) — what `wbctl top` surfaces as framing+replication overhead. *)
let m_board_bits =
  Obs.Metrics.counter ~help:"board payload bits carried by referee sessions" "net.session.board_bits"

let m_wire_bytes =
  Obs.Metrics.counter ~help:"wire bytes (sent + received) across session connections"
    "net.session.wire_bytes"

let m_overhead =
  Obs.Metrics.gauge ~help:"last session wire bits per board bit, percent"
    "net.session.wire_overhead_pct"

(* RPC round-trip latency is observed unconditionally — tracing off or on —
   so `wbctl top` always has percentiles to show. *)
let m_rpc_activate =
  Obs.Metrics.histogram ~help:"ACTIVATE RPC round-trip, microseconds" "net.rpc.activate_us"

let m_rpc_compose =
  Obs.Metrics.histogram ~help:"COMPOSE RPC round-trip, microseconds" "net.rpc.compose_us"

(* The round semantics live entirely in {!Wb_model.Machine}; this module
   only supplies the transport: each kernel hook becomes an RPC to the
   connection owning that node (preceded by a BOARD-DELTA bringing its
   replica up to date), and any transport or protocol fault marks the node
   dead — in the kernel via [Machine.kill], and here so its socket is
   closed exactly once. *)
let run cfg conns =
  let module P = (val cfg.protocol : M.Protocol.S) in
  let g = cfg.graph in
  let n = G.n g in
  if Array.length conns <> n then
    invalid_arg
      (Printf.sprintf "Session.run: %d connections for a %d-node graph" (Array.length conns) n);
  let faults = ref [] in
  let dead = Array.make n false in
  let synced = Array.make n 0 in
  (* Death-site ledger: [site_now.(v)] tracks which hook invocation (or
     write grant, or teardown) node [v]'s connection is currently serving,
     so a fault is recorded with the exact kernel coordinate it hit. *)
  let deaths = ref [] in
  let hook_count = Array.make n 0 in
  let site_now = Array.make n Teardown in
  let enter_hook v =
    site_now.(v) <- Hook hook_count.(v);
    hook_count.(v) <- hook_count.(v) + 1
  in
  (* Ids are minted from the parent context, so session span ids
     reproduce under the same driver trace. *)
  let minter =
    Obs.Span.minter
      ~seed:(match cfg.parent with Some c -> c.Obs.Span.trace lxor c.Obs.Span.span | None -> 1)
      ()
  in
  let session_span =
    match cfg.trace with
    | None -> None
    | Some tr ->
      Some (Obs.Span.start ?parent:cfg.parent ~attrs:[ ("n", string_of_int n) ] minter tr "session")
  in
  let session_ctx = Option.map Obs.Span.context session_span in
  (* Forward references: the hooks below must kill kernel-side and read
     the kernel's round, but the machine is built from the hooks. *)
  let kill_ref = ref (fun (_ : int) -> ()) in
  let round_ref = ref (fun () -> 0) in
  (* The only place a node dies under a trace: a zero-length ["fault"]
     span under the session marks it. *)
  let fail_node v fault =
    if not dead.(v) then begin
      dead.(v) <- true;
      faults := (v, fault) :: !faults;
      deaths := { node = v; site = site_now.(v) } :: !deaths;
      Conn.close conns.(v);
      (match cfg.trace with
      | None -> ()
      | Some tr ->
        let round = !round_ref () in
        Obs.Span.finish ~round tr
          (Obs.Span.start ?parent:session_ctx
             ~attrs:[ ("node", string_of_int (v + 1)) ]
             ~round minter tr "fault"));
      !kill_ref v
    end
  in
  let send ?ctx v frame =
    match Conn.send ?ctx conns.(v) frame with
    | Ok () -> true
    | Error f ->
      fail_node v (Transport f);
      false
  in
  let sync board v =
    let len = M.Board.length board in
    if synced.(v) < len then begin
      let messages = ref [] in
      for i = len - 1 downto synced.(v) do
        let m = M.Board.get board i in
        messages := (M.Message.author m, M.Message.payload m) :: !messages
      done;
      if
        send v
          (Wire.Board_delta
             { from_pos = synced.(v); generation = M.Board.generation board; messages = !messages })
      then synced.(v) <- len
    end
  in
  (* One query round-trip: sync the replica, send (carrying the RPC span's
     context so the client can parent its handler span under it), await the
     reply, observe the latency. *)
  let rpc ~round ~name ~hist board v frame =
    if dead.(v) then None
    else begin
      sync board v;
      if dead.(v) then None
      else begin
        let sp =
          match cfg.trace with
          | None -> None
          | Some tr ->
            Some
              ( tr,
                Obs.Span.start ?parent:session_ctx
                  ~attrs:[ ("node", string_of_int (v + 1)) ]
                  ~round minter tr name )
        in
        (* Without a session trace, forward the driver's context unchanged
           so a tracing client still joins the right trace. *)
        let ctx =
          match sp with Some (_, s) -> Some (Obs.Span.context s) | None -> cfg.parent
        in
        let t0 = Obs.Span.now_us () in
        let result =
          if not (send ?ctx v frame) then None
          else
            match Conn.recv conns.(v) with
            | Ok reply -> Some reply
            | Error f ->
              fail_node v (Transport f);
              None
        in
        Obs.Metrics.observe hist (Obs.Span.now_us () - t0);
        (match sp with Some (tr, s) -> Obs.Span.finish ~round tr s | None -> ());
        result
      end
    end
  in
  let module N = struct
    let model = P.model
    let message_bound = P.message_bound

    type local = unit

    let init _ = ()

    let wants_to_activate ~round view board () =
      let v = M.View.id view in
      enter_hook v;
      match
        rpc ~round ~name:"net.rpc.activate" ~hist:m_rpc_activate board v
          (Wire.Activate_query { round })
      with
      | None -> false
      | Some (Wire.Activate_reply { round = r; activate }) when r = round -> activate
      | Some f ->
        fail_node v (Confused ("expected ACTIVATE reply, got " ^ Wire.opcode_name f));
        false

    let compose ~round view board () =
      let v = M.View.id view in
      enter_hook v;
      match
        rpc ~round ~name:"net.rpc.compose" ~hist:m_rpc_compose board v
          (Wire.Compose_request { round })
      with
      | None -> None
      | Some (Wire.Compose_reply { round = r; payload }) when r = round ->
        Some (M.Message.make ~author:v ~payload, ())
      | Some f ->
        fail_node v (Confused ("expected COMPOSE reply, got " ^ Wire.opcode_name f));
        None

    let output = P.output
  end in
  let module Mach = M.Machine.Make (N) in
  let m = Mach.init ?max_rounds:cfg.max_rounds ?trace:cfg.trace g in
  kill_ref := Mach.kill m;
  round_ref := (fun () -> Mach.round m);
  let rec drive () =
    match Mach.step m with
    | `Choices candidates ->
      Mach.pick m (M.Adversary.choose cfg.adversary (Mach.board m) candidates);
      drive ()
    | `Write v ->
      let board = Mach.board m in
      site_now.(v) <- Post_write;
      ignore (send v (Wire.Write_grant { round = Mach.round m; position = M.Board.length board - 1 }));
      drive ()
    | `Done run -> run
  in
  let run = drive () in
  let tag = M.Engine.outcome_tag run.M.Engine.outcome in
  let detail =
    match run.M.Engine.outcome with
    | M.Engine.Success a -> Format.asprintf "%a" M.Answer.pp a
    | M.Engine.Deadlock -> "corrupted final configuration"
    | M.Engine.Size_violation { node; bits; bound } ->
      Printf.sprintf "node %d wrote %d bits (bound %d)" (node + 1) bits bound
    | M.Engine.Output_error e -> e
  in
  for v = 0 to n - 1 do
    if not dead.(v) then begin
      site_now.(v) <- Teardown;
      sync run.M.Engine.board v;
      ignore (send v (Wire.Run_end { outcome = tag; detail; rounds = run.M.Engine.stats.rounds }));
      Conn.close conns.(v)
    end
  done;
  (match (cfg.trace, session_span) with
  | Some tr, Some s -> Obs.Span.finish ~round:run.M.Engine.stats.rounds tr s
  | _ -> ());
  Obs.Metrics.incr m_sessions;
  Obs.Metrics.incr (m_outcome tag);
  if not (List.is_empty !faults) then Obs.Metrics.incr m_faulted;
  let wire_bytes =
    Array.fold_left (fun acc c -> acc + Conn.bytes_sent c + Conn.bytes_received c) 0 conns
  in
  let board_bits = run.M.Engine.stats.total_bits in
  Obs.Metrics.add m_board_bits board_bits;
  Obs.Metrics.add m_wire_bytes wire_bytes;
  if board_bits > 0 then Obs.Metrics.set m_overhead (wire_bytes * 8 * 100 / board_bits);
  { run; faults = List.rev !faults; deaths = List.rev !deaths }
