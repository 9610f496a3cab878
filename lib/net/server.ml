module M = Wb_model
module G = Wb_graph.Graph
module Obs = Wb_obs

type spec = {
  key : string;
  protocol : M.Protocol.t;
  graph : Wb_graph.Graph.t;
  make_adversary : unit -> M.Adversary.t;
  max_rounds : int option;
  timeout : float;
  trace : Obs.Trace.t option;
}

let ring_capacity = 4096

(* A session's slot is reserved by a HELLO and joined once its HELLO-ACK
   is out. *)
type slot = Free | Reserved | Joined of Conn.t

let is_free = function Free -> true | Reserved | Joined _ -> false

type t = {
  spec : spec;
  fd : Unix.file_descr;
  port_no : int;
  lock : Mutex.t;
  cond : Condition.t;
  pending : (string, slot array) Hashtbl.t;
  ring : Obs.Trace.Ring.buffer;
  ring_lock : Mutex.t;
  session_sink : Obs.Trace.t;
  mutable results : (string * Session.result) list;
  mutable completed : int;
  mutable stopped : bool;
}

let create ?(addr = "127.0.0.1") ~port spec =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
  Unix.listen fd (max 16 (G.n spec.graph));
  let port_no =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> port
  in
  (* Every session streams into the flight-recorder ring (served back by
     TELEMETRY and dumped on failures); the ring itself is single-threaded,
     so the sink is serialised — sessions run on handshake threads. *)
  let ring = Obs.Trace.Ring.create ~capacity:ring_capacity in
  let ring_lock = Mutex.create () in
  let raw_ring = Obs.Trace.Ring.sink ring in
  let locked_ring =
    Obs.Trace.of_fn (fun ev ->
        Wb_support.Sync.with_lock ring_lock (fun () -> Obs.Trace.emit raw_ring ev))
  in
  let session_sink =
    match spec.trace with None -> locked_ring | Some tr -> Obs.Trace.tee [ locked_ring; tr ]
  in
  { spec;
    fd;
    port_no;
    lock = Mutex.create ();
    cond = Condition.create ();
    pending = Hashtbl.create 8;
    ring;
    ring_lock;
    session_sink;
    results = [];
    completed = 0;
    stopped = false }

let port t = t.port_no

(* [stop] must not touch the descriptor at all: a stop can be issued from a
   session thread that lingers past [serve]'s own close, by which point the
   fd number may have been reused by an unrelated socket — a delayed
   shutdown would then kill a stranger's listener.  Setting the flag is
   enough; [serve]'s poll loop notices it within one tick and closes the
   descriptor itself, the only place that ever does. *)
let stop t =
  Wb_support.Sync.with_lock t.lock (fun () ->
      t.stopped <- true;
      Condition.broadcast t.cond)

let take_result t name =
  Wb_support.Sync.with_lock t.lock (fun () ->
      let rec wait () =
        match List.assoc_opt name t.results with
        | Some r ->
          t.results <- List.remove_assoc name t.results;
          Some r
        | None ->
          if t.stopped then None
          else begin
            Condition.wait t.cond t.lock;
            wait ()
          end
      in
      wait ())

let reject conn code detail =
  ignore (Conn.send conn (Wire.Error { code; detail }));
  Conn.close conn

(* Reserve a slot of [session] and return its node id; the caller holds no
   lock.  The slot counts as taken from here on, but the session cannot
   start until the caller has acked it and called [join]. *)
let claim t ~session ~node_pref =
  let n = G.n t.spec.graph in
  Wb_support.Sync.with_lock t.lock (fun () ->
    match List.assoc_opt session t.results with
    | Some _ -> Result.Error (Wire.Session_busy, "session already completed")
    | None -> (
      let slots =
        match Hashtbl.find_opt t.pending session with
        | Some s -> s
        | None ->
          let s = Array.make n Free in
          Hashtbl.add t.pending session s;
          s
      in
      let free = ref [] in
      for v = n - 1 downto 0 do
        if is_free slots.(v) then free := v :: !free
      done;
      match (node_pref, !free) with
      | _, [] -> Result.Error (Wire.Session_busy, "session already full")
      | Some v, _ when v < 0 || v >= n ->
        Result.Error (Wire.Node_taken, Printf.sprintf "node %d out of range [0,%d)" v n)
      | Some v, _ when not (is_free slots.(v)) ->
        Result.Error (Wire.Node_taken, Printf.sprintf "node %d already claimed" v)
      | pref, first_free :: _ ->
        let v = match pref with Some v -> v | None -> first_free in
        slots.(v) <- Reserved;
        Ok v))

(* The HELLO-ACK for [node] is out: mark its slot joined.  When that joins
   the last slot, return every connection — the caller then referees the
   session on its own thread, which may write to any of them at once. *)
let join t ~session node conn =
  Wb_support.Sync.with_lock t.lock (fun () ->
      match Hashtbl.find_opt t.pending session with
      | None -> None
      | Some slots ->
        slots.(node) <- Joined conn;
        let conns =
          List.filter_map
            (function Joined c -> Some c | Free | Reserved -> None)
            (Array.to_list slots)
        in
        if List.length conns < Array.length slots then None
        else begin
          Hashtbl.remove t.pending session;
          Some (Array.of_list conns)
        end)

(* The ack never left: give the slot back. *)
let release t ~session node =
  Wb_support.Sync.with_lock t.lock (fun () ->
      Option.iter (fun slots -> slots.(node) <- Free) (Hashtbl.find_opt t.pending session))

let record_result t ~max_sessions session result =
  let enough =
    Wb_support.Sync.with_lock t.lock (fun () ->
        t.results <- (session, result) :: t.results;
        t.completed <- t.completed + 1;
        Condition.broadcast t.cond;
        match max_sessions with Some k -> t.completed >= k | None -> false)
  in
  if enough then stop t

(* Answer a TELEMETRY probe: the full metrics snapshot plus the newest ring
   events that fit the frame budget.  [dropped] counts ring overwrites plus
   any requested-but-withheld tail entries. *)
let telemetry_reply t tail =
  let metrics = Obs.Json.to_string (Obs.Metrics.dump_json ()) in
  let events, ring_dropped =
    Wb_support.Sync.with_lock t.ring_lock (fun () ->
        (Obs.Trace.Ring.to_list t.ring, Obs.Trace.Ring.dropped t.ring))
  in
  let total = List.length events in
  let want = min tail total in
  let newest_first =
    List.filteri (fun i _ -> i >= total - want) events
    |> List.rev_map (fun ev -> Obs.Json.to_string (Obs.Event.to_json ev))
  in
  let budget = Wire.max_frame_bytes - String.length metrics - 4096 in
  let kept, _ =
    List.fold_left
      (fun (kept, used) line ->
        let used = used + String.length line + 8 in
        if used > budget then (kept, used) else (line :: kept, used))
      ([], 0) newest_first
  in
  Wire.Telemetry_reply
    { metrics; events = kept; dropped = ring_dropped + (want - List.length kept) }

let prof_dispatch = Obs.Prof.site "server.dispatch"

(* Route one accepted connection's first decoded frame: probes are answered
   and closed, a HELLO claims its seat (and, on roster completion, runs the
   session); anything else is a typed rejection. *)
let dispatch t ~max_sessions conn frame hello_ctx =
  match (frame, hello_ctx) with
  | Wire.Telemetry_request { tail }, _ ->
    ignore (Conn.send conn (telemetry_reply t tail));
    Conn.close conn
  | Wire.Metrics_request, _ ->
    (* The Prometheus-style scrape endpoint: the whole registry in
       OpenMetrics text form, one frame, then close. *)
    ignore (Conn.send conn (Wire.Metrics_reply { body = Obs.Metrics.dump_openmetrics () }));
    Conn.close conn
  | Wire.Hello { session; protocol; node_pref }, hello_ctx ->
    if protocol <> t.spec.key then
      reject conn Wire.Protocol_mismatch
        (Printf.sprintf "this server referees %S, not %S" t.spec.key protocol)
    else begin
      match claim t ~session ~node_pref with
      | Result.Error (code, detail) -> reject conn code detail
      | Ok node -> (
        let ack =
          Wire.Hello_ack
            { session;
              node;
              n = G.n t.spec.graph;
              neighbors = G.neighbors t.spec.graph node;
              bound =
                (let module P = (val t.spec.protocol : M.Protocol.S) in
                 P.message_bound ~n:(G.n t.spec.graph)) }
        in
        match Conn.send conn ack with
        | Error _ ->
          release t ~session node;
          Conn.close conn
        | Ok () -> (
          match join t ~session node conn with
          | None -> ()
          | Some conns ->
            (* The roster-completing HELLO's context parents the session span:
               a remote-run driver hands every client the same root, so any
               join's context names the same trace. *)
            let result =
              Session.run
                { Session.protocol = t.spec.protocol;
                  graph = t.spec.graph;
                  adversary = t.spec.make_adversary ();
                  max_rounds = t.spec.max_rounds;
                  trace = Some t.session_sink;
                  parent = hello_ctx }
                conns
            in
            record_result t ~max_sessions session result))
    end
  | f, _ -> reject conn Wire.Bad_hello ("expected HELLO, got " ^ Wire.opcode_name f)

let handshake t ~max_sessions conn =
  match Conn.recv_ctx conn with
  | Error (Conn.Bad_frame e) -> reject conn Wire.Malformed (Wire.error_to_string e)
  | Error Conn.Timeout -> reject conn Wire.Timed_out "no HELLO before the read timeout"
  | Error Conn.Closed -> Conn.close conn
  | Ok (frame, ctx) ->
    Obs.Prof.phase prof_dispatch (fun () -> dispatch t ~max_sessions conn frame ctx)

let serve ?max_sessions t =
  let stopped () = Wb_support.Sync.with_lock t.lock (fun () -> t.stopped) in
  let rec loop () =
    if not (stopped ()) then begin
      match Unix.select [ t.fd ] [] [] 0.05 with
      | [], _, _ -> loop ()
      | _ :: _, _, _ -> (
        match Unix.accept t.fd with
        | client_fd, addr ->
          Obs.Metrics.incr Conn.Metrics.connections;
          let peer =
            match addr with
            | Unix.ADDR_INET (host, p) ->
              Printf.sprintf "%s:%d" (Unix.string_of_inet_addr host) p
            | Unix.ADDR_UNIX path -> path
          in
          let conn = Conn.of_fd ~timeout:t.spec.timeout ~peer client_fd in
          ignore (Thread.create (fun () -> handshake t ~max_sessions conn) ());
          loop ()
        | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> loop ()
        | exception Unix.Unix_error (_, _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error (_, _, _) -> ()
    end
  in
  loop ();
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  (* Wake any take_result waiting on a session that will never finish. *)
  Wb_support.Sync.with_lock t.lock (fun () ->
      t.stopped <- true;
      Condition.broadcast t.cond)

let serve_in_thread ?max_sessions t = Thread.create (fun () -> serve ?max_sessions t) ()
