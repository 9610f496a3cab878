(* wbctl — command-line driver for the whiteboard-model laboratory.

   Subcommands:
     models                         print Table 1
     protocols                      list registered protocols
     run                            run one protocol on a generated graph
     explore                        exhaustively check all schedules
     serve                          host a networked referee (wb_net server)
     join                           speak for one node of a remote session
     remote-run                     server + n clients in one process (loopback or sockets)
     chaos                          seeded fault-injection campaigns with crash-replay checks
     top                            a running referee's metrics and flight recorder
     synth                          minimal-alphabet synthesis at tiny n
     counting                       Lemma 3 information floors
     graph                          generate a graph and print it (graph6)

   Instruments are one flag each, with one meaning on every command that
   offers it: --events FILE (the event stream as JSONL), --chrome FILE (a
   Chrome trace), --metrics FILE (the registry, repeatable) and --profile.

   Exit codes: 0 success, 1 usage/setup error, 2 the execution failed
   (deadlock, size violation, output error, an invalid answer, a false
   verdict, or a failed differential check) — so scripts can branch on the
   outcome. *)

open Cmdliner
module P = Wb_model
module G = Wb_graph
module Obs = Wb_obs
module Prng = Wb_support.Prng
module Net = Wb_net
module Chaos = Wb_chaos

(* ---- shared argument parsing ---------------------------------------- *)

let gen_doc =
  "Graph family: tree, forest, path, cycle, star, complete, petersen, grid, hypercube, \
   gnp, connected, ktree:K, kdegenerate:K, apollonian, eob, bipartite, two-cliques, \
   near-two-cliques, triangle-tail"

let make_graph ~family ~n ~p ~seed =
  let rng = Prng.create seed in
  let half = max 1 (n / 2) in
  match String.split_on_char ':' family with
  | [ "tree" ] -> G.Gen.random_tree rng n
  | [ "forest" ] -> G.Gen.random_forest rng n ~keep:0.6
  | [ "path" ] -> G.Gen.path n
  | [ "cycle" ] -> G.Gen.cycle n
  | [ "star" ] -> G.Gen.star n
  | [ "complete" ] -> G.Gen.complete n
  | [ "petersen" ] -> G.Gen.petersen ()
  | [ "grid" ] ->
    let side = max 1 (int_of_float (sqrt (float_of_int n))) in
    G.Gen.grid side side
  | [ "hypercube" ] ->
    let d = max 1 (Wb_support.Bitbuf.width_of (max 1 (n - 1))) in
    G.Gen.hypercube d
  | [ "gnp" ] -> G.Gen.random_gnp rng n p
  | [ "connected" ] -> G.Gen.random_connected rng n p
  | [ "ktree"; k ] -> G.Gen.random_ktree rng n ~k:(int_of_string k)
  | [ "kdegenerate"; k ] -> G.Gen.random_kdegenerate rng n ~k:(int_of_string k)
  | [ "apollonian" ] -> G.Gen.apollonian rng n
  | [ "eob" ] -> G.Gen.random_eob rng n p
  | [ "bipartite" ] -> G.Gen.random_bipartite rng half (n - half) p
  | [ "two-cliques" ] -> G.Gen.two_cliques_shuffled rng half
  | [ "near-two-cliques" ] -> G.Gen.near_two_cliques half
  | [ "triangle-tail" ] -> G.Gen.triangle_with_tail n
  | _ -> invalid_arg ("unknown graph family: " ^ family)

let family_arg =
  Arg.(value & opt string "tree" & info [ "g"; "graph" ] ~docv:"FAMILY" ~doc:gen_doc)

let n_arg = Arg.(value & opt int 16 & info [ "n" ] ~docv:"N" ~doc:"Number of nodes")

let p_arg = Arg.(value & opt float 0.2 & info [ "p" ] ~docv:"P" ~doc:"Edge probability")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed")

let adversary_arg =
  Arg.(
    value
    & opt string "random"
    & info [ "a"; "adversary" ] ~docv:"ADV"
        ~doc:"Scheduler: min, max, random, alternate, avoid-last")

let make_adversary name g seed =
  match name with
  | "min" -> P.Adversary.min_id
  | "max" -> P.Adversary.max_id
  | "random" -> P.Adversary.random (Prng.create seed)
  | "alternate" -> P.Adversary.alternating_extremes
  | "avoid-last" -> P.Adversary.last_writer_neighbor_avoider g
  | other -> invalid_arg ("unknown adversary: " ^ other)

(* ---- commands -------------------------------------------------------- *)

let models_cmd =
  let run () = print_endline (P.Model.table1 ()) in
  Cmd.v (Cmd.info "models" ~doc:"Print the paper's Table 1") Term.(const run $ const ())

let protocols_cmd =
  let costs_arg =
    Arg.(
      value & flag
      & info [ "costs" ]
          ~doc:
            "Also print each protocol's cost certificate: the closed-form envelope, its value at \
             n=16/256, and the Lemma 3 floor class where one is declared")
  in
  let run costs =
    Printf.printf "%-26s %-10s %-22s %s\n" "key" "model" "problem (n=16)" "promise class";
    List.iter
      (fun (e : Wb_protocols.Registry.entry) ->
        let promise =
          match e.promise with
          | Wb_protocols.Registry.Any_graph -> "any graph"
          | Wb_protocols.Registry.Forest -> "forests"
          | Wb_protocols.Registry.Degeneracy_at_most k -> Printf.sprintf "degeneracy <= %d" k
          | Wb_protocols.Registry.Split_degeneracy_at_most k ->
            Printf.sprintf "split-degeneracy <= %d" k
          | Wb_protocols.Registry.Even_odd_bipartite -> "even-odd bipartite"
          | Wb_protocols.Registry.Bipartite -> "bipartite"
          | Wb_protocols.Registry.Regular_two_half -> "(n/2-1)-regular"
        in
        Printf.printf "%-26s %-10s %-22s %s%s\n" e.key
          (P.Model.name (P.Protocol.model e.protocol))
          (P.Problems.name (e.problem 16))
          promise
          (if e.randomized then "  [randomized]" else "");
        if costs then begin
          let c = Wb_bench.Cost.certificate e.key in
          Printf.printf "    envelope: %s  (n=16: %d bits, n=256: %d bits)\n" c.form
            (c.envelope ~n:16) (c.envelope ~n:256);
          match c.floor with
          | Some cls ->
            let floor n = Wb_reductions.Counting.min_message_bits cls n in
            Printf.printf "    floor:    %s  (n=16: %d bits, n=256: %d bits)\n"
              cls.Wb_reductions.Counting.name (floor 16) (floor 256)
          | None -> ()
        end)
      (Wb_protocols.Registry.all ())
  in
  Cmd.v (Cmd.info "protocols" ~doc:"List registered protocols") Term.(const run $ costs_arg)

(* Prints the run and returns the process exit code: unsuccessful outcomes
   and invalid answers exit 2 so scripting against the CLI is sound. *)
let print_run g problem (run : P.Engine.run) =
  Printf.printf "rounds: %d   max message: %d bits   board total: %d bits\n"
    run.P.Engine.stats.rounds run.P.Engine.stats.max_message_bits run.P.Engine.stats.total_bits;
  Printf.printf "write order: %s\n"
    (String.concat " " (List.map (fun v -> string_of_int (v + 1)) (Array.to_list run.P.Engine.writes)));
  match run.P.Engine.outcome with
  | P.Engine.Success a ->
    Format.printf "answer: %a@." P.Answer.pp a;
    let valid = P.Problems.valid_answer problem g a in
    Printf.printf "valid: %b\n" valid;
    if valid then 0 else 2
  | P.Engine.Deadlock ->
    print_endline "outcome: DEADLOCK (corrupted final configuration)";
    2
  | P.Engine.Size_violation { node; bits; bound } ->
    Printf.printf "outcome: SIZE VIOLATION node %d wrote %d bits (bound %d)\n" (node + 1) bits bound;
    2
  | P.Engine.Output_error e ->
    Printf.printf "outcome: OUTPUT ERROR %s\n" e;
    2

(* ---- instruments: one flag each, one meaning on every command ------- *)

let events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE" ~doc:"Write the event stream to $(docv) as JSONL, one event per line")

let chrome_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event file to $(docv) (open in about:tracing or Perfetto): one run \
           on its logical round axis, or the merged per-process or per-domain shards of a \
           networked run or a parallel exploration")

let metrics_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Dump the metrics registry to $(docv) when the command ends: the JSON envelope for a \
           .json name, OpenMetrics text for any other.  Repeatable")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Enable Wb_prof phase profiling (prof.* histograms in the metrics registry; also \
           enabled by WB_PROF=1)")

let apply_profile profile = if profile then Obs.Prof.enable ()

let open_out_or_die file =
  try open_out file
  with Sys_error msg ->
    Printf.eprintf "wbctl: cannot open %s: %s\n" file msg;
    exit 1

(* Bench suites and the cost sweep raise [Failure] on a broken check:
   report it in one line and exit 2, like any failing run; an unwritable
   report exits 1, like every other output file. *)
let exit_on_failure f =
  try f () with
  | Failure msg ->
    Printf.eprintf "wbctl: %s\n" msg;
    exit 2
  | Sys_error msg ->
    Printf.eprintf "wbctl: %s\n" msg;
    exit 1

let write_metrics files =
  List.iter
    (fun file ->
      let oc = open_out_or_die file in
      if Filename.check_suffix file ".json" then begin
        Obs.Json.to_channel oc (Obs.Metrics.dump_json ());
        output_char oc '\n'
      end
      else output_string oc (Obs.Metrics.dump_openmetrics ());
      close_out oc;
      Printf.printf "metrics: %s\n" file)
    files

let write_lines file lines =
  let oc = open_out_or_die file in
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    lines;
  close_out oc

(* ---- telemetry over the wire (TELEMETRY RPC) -------------------------- *)

let die msg =
  Printf.eprintf "wbctl: %s\n" msg;
  exit 1

(* Resolve [host] (a name or a numeric address) and connect to the first of
   its addresses that accepts, each in its own socket family: a name may
   resolve to an IPv6 address ahead of the IPv4 one a referee listens on. *)
let connect ~host ~port ~timeout =
  let peer = Printf.sprintf "%s:%d" host port in
  let rec attempt err = function
    | [] -> die (Printf.sprintf "cannot connect to %s: %s" peer err)
    | ai :: rest -> (
      match Unix.socket ai.Unix.ai_family ai.Unix.ai_socktype ai.Unix.ai_protocol with
      | exception Unix.Unix_error (e, _, _) -> attempt (Unix.error_message e) rest
      | fd -> (
        match Unix.connect fd ai.Unix.ai_addr with
        | () -> Net.Conn.of_fd ~timeout ~peer fd
        | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          attempt (Unix.error_message e) rest))
  in
  attempt "unknown host or port"
    (Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ])

(* One request/reply round-trip (the TELEMETRY or the METRICS RPC): the
   server answers on the handshake and closes, so every probe is a fresh
   connection.  [reply] picks the expected answer out of the reply frame. *)
let probe ~host ~port ~timeout request reply =
  let conn = connect ~host ~port ~timeout in
  let r = Result.bind (Net.Conn.send conn request) (fun () -> Net.Conn.recv conn) in
  Net.Conn.close conn;
  match r with
  | Error f -> die (Net.Conn.fault_to_string f)
  | Ok frame -> (
    match reply frame with
    | Some v -> v
    | None -> die ("unexpected reply: " ^ Net.Wire.opcode_name frame))

let metrics_body = function Net.Wire.Metrics_reply { body } -> Some body | _ -> None

let print_telemetry metrics_str =
  match Obs.Json.of_string metrics_str with
  | Error e ->
    Printf.eprintf "wbctl: malformed metrics from server: %s\n" e;
    exit 2
  | Ok j ->
    let section name =
      match Obs.Json.member name j with Some (Obs.Json.Obj kvs) -> kvs | _ -> []
    in
    let scalars = section "counters" @ section "gauges" in
    List.iter
      (fun (k, v) ->
        match v with Obs.Json.Int i -> Printf.printf "%-38s %10d\n" k i | _ -> ())
      scalars;
    (* Wire-overhead digest: how many framed wire bytes the referee moved
       per board bit, when the session counters are present. *)
    let scalar k =
      match List.assoc_opt k scalars with Some (Obs.Json.Int i) -> Some i | _ -> None
    in
    (match (scalar "net.session.board_bits", scalar "net.session.wire_bytes") with
    | Some bits, Some bytes when bits > 0 ->
      Printf.printf "%-38s %9.1fx  (%d wire bytes for %d board bits)\n" "wire overhead"
        (float_of_int (bytes * 8) /. float_of_int bits)
        bytes bits
    | _ -> ());
    let hists = section "histograms" in
    if not (List.is_empty hists) then
      Printf.printf "%-38s %10s %8s %8s %8s %8s\n" "histogram" "count" "p50" "p95" "p99" "max";
    List.iter
      (fun (k, h) ->
        let cell key =
          match Obs.Json.member key h with
          | Some (Obs.Json.Int i) -> string_of_int i
          | _ -> "-"
        in
        Printf.printf "%-38s %10s %8s %8s %8s %8s\n" k (cell "count") (cell "p50") (cell "p95")
          (cell "p99") (cell "max"))
      hists

let write_chrome_merge file shards =
  let shards = List.filter (fun (_, events) -> not (List.is_empty events)) shards in
  let oc = open_out_or_die file in
  Obs.Json.to_channel oc (Obs.Chrome.merge shards);
  output_char oc '\n';
  close_out oc;
  Printf.printf "chrome trace: %s (%d shards)\n" file (List.length shards)

(* Flight recorder dump: the referee collector's event tail as JSONL next
   to the report — enough to see which node starved a failing run. *)
let write_flight ~tail file events =
  let total = List.length events in
  let events =
    if total > tail then List.filteri (fun i _ -> i >= total - tail) events else events
  in
  write_lines file (List.map (fun ev -> Obs.Json.to_string (Obs.Event.to_json ev)) events);
  Printf.printf "flight recorder: %s (last %d of %d referee events)\n" file (List.length events)
    total

let key_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROTOCOL" ~doc:"Registry key")

let with_entry key f =
  match Wb_protocols.Registry.find key with
  | None ->
    Printf.eprintf "unknown protocol %s (try `wbctl protocols`)\n" key;
    exit 1
  | Some e -> f e

let run_cmd =
  let timeline_arg =
    Arg.(
      value & flag
      & info [ "timeline" ]
          ~doc:"Print the run's summary and its round-by-round timeline, rendered from its events")
  in
  let run key family n p seed adv timeline events chrome metrics profile =
    apply_profile profile;
    with_entry key (fun e ->
        let g = make_graph ~family ~n ~p ~seed in
        Printf.printf "graph: %s on %d nodes, %d edges (seed %d)\n" family (G.Graph.n g)
          (G.Graph.num_edges g) seed;
        if not (Wb_protocols.Registry.satisfies_promise e.promise g) then
          print_endline "warning: instance violates the protocol's promise class";
        let adversary = make_adversary adv g seed in
        (* Only the instruments asked for are attached; with none, the
           kernel constructs no event at all. *)
        let events_oc = Option.map open_out_or_die events in
        let chrome_oc = Option.map open_out_or_die chrome in
        let collector, collected = Obs.Trace.collector () in
        let sinks =
          List.filter_map Fun.id
            [ (if timeline then Some collector else None);
              Option.map Obs.Trace.jsonl_writer events_oc;
              Option.map Obs.Chrome.writer chrome_oc ]
        in
        let trace = if List.is_empty sinks then None else Some (Obs.Trace.tee sinks) in
        let result = P.Engine.run_packed ?trace e.protocol g adversary in
        Option.iter Obs.Trace.close trace;
        Option.iter close_out events_oc;
        Option.iter close_out chrome_oc;
        if timeline then begin
          print_string (P.Report.summary result);
          print_newline ();
          print_string (P.Report.timeline_of_events ~n:(G.Graph.n g) (collected ()))
        end;
        let code = print_run g (e.problem (G.Graph.n g)) result in
        Option.iter (Printf.printf "events: %s\n") events;
        Option.iter (Printf.printf "chrome trace: %s\n") chrome;
        write_metrics metrics;
        if code <> 0 then exit code)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a protocol on a generated graph")
    Term.(
      const run $ key_arg $ family_arg $ n_arg $ p_arg $ seed_arg $ adversary_arg $ timeline_arg
      $ events_arg $ chrome_arg $ metrics_arg $ profile_arg)

(* Every explore walk, canonical or enumerating, traced or not, stops at
   this many distinct configurations or schedules. *)
let explore_limit = 1_000_000

let explore_cmd =
  let jobs_arg =
    Arg.(
      value
      & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Split the exploration over N worker domains.  The printed result is identical at \
             every N")
  in
  let no_dedup_arg =
    Arg.(
      value & flag
      & info [ "no-dedup" ]
          ~doc:
            "Force plain schedule enumeration, bypassing canonical-state dedup and symmetry \
             reduction even for protocols that declare them sound (the CI differential diffs \
             this against the default path)")
  in
  let quiet_arg =
    Arg.(
      value & flag
      & info [ "quiet" ]
          ~doc:"Print only the verdict line — identical with and without --no-dedup")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print the canonical-exploration counters (dedup hits, orbit collapses, steals, \
             states claimed, visited-table entries) from the metrics registry after the run")
  in
  let explore_ring_capacity = 65536 in
  let run key family n p seed jobs no_dedup quiet stats chrome metrics profile =
    apply_profile profile;
    with_entry key (fun e ->
        let g = make_graph ~family ~n ~p ~seed in
        let problem = e.problem (G.Graph.n g) in
        if jobs < 1 then begin
          prerr_endline "wbctl: --jobs N must be positive";
          exit 1
        end;
        let shards =
          match chrome with
          | None -> None
          | Some _ ->
            Some (Array.init jobs (fun _ -> Obs.Trace.Ring.create ~capacity:explore_ring_capacity))
        in
        let check r =
          match r.P.Engine.outcome with
          | P.Engine.Success a -> P.Problems.valid_answer problem g a
          | _ -> false
        in
        let print_stats () =
          if stats then begin
            let c name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
            Printf.printf "dedup hits:      %d\n" (c "explore.dedup_hits");
            Printf.printf "orbit collapses: %d\n" (c "explore.orbit_collapses");
            Printf.printf "steals:          %d\n" (c "explore.steals");
            Printf.printf "states claimed:  %d\n" (c "explore.states");
            Printf.printf "table entries:   %d\n"
              (Obs.Metrics.gauge_value (Obs.Metrics.gauge "explore.table_used"))
          end
        in
        let finish_trace () =
          match (chrome, shards) with
          | Some file, Some rings ->
            Array.iteri
              (fun k r ->
                let d = Obs.Trace.Ring.dropped r in
                if d > 0 then
                  Printf.printf "warning: domain %d ring dropped %d events (capacity %d)\n" k d
                    explore_ring_capacity)
              rings;
            write_chrome_merge file
              (Array.to_list
                 (Array.mapi
                    (fun k r -> (Printf.sprintf "domain-%d" k, Obs.Trace.Ring.to_list r))
                    rings))
          | _ -> ()
        in
        let protocol = if no_dedup then P.Protocol.opaque e.protocol else e.protocol in
        match P.Engine.verify_packed ~limit:explore_limit ~jobs ?shards protocol g check with
        | Error (`Limit limit) ->
          Printf.eprintf "wbctl: exploration exceeded its limit (%d)\n" limit;
          exit 2
        | Ok v ->
          Printf.printf "all valid: %b\n" v.P.Engine.valid;
          if not quiet then
            if v.P.Engine.dedup then
              Printf.printf
                "configurations: %d interior + %d final   dedup hits: %d   orbit collapses: %d \
                 (|Aut| = %d)\n"
                v.P.Engine.states v.P.Engine.finals v.P.Engine.dedup_hits
                v.P.Engine.orbit_collapses v.P.Engine.group_order
            else Printf.printf "schedules explored: %d\n" v.P.Engine.finals;
          finish_trace ();
          print_stats ();
          write_metrics metrics;
          if not v.P.Engine.valid then exit 2)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         (Printf.sprintf
            "Check a protocol under every adversarial schedule — canonical-state dedup and \
             symmetry reduction by default where the protocol's traits allow, plain enumeration \
             otherwise.  A walk stops after %d configurations (canonical) or schedules \
             (enumeration) and exits 2, as a false verdict does"
            explore_limit))
    Term.(
      const run $ key_arg $ family_arg $ n_arg $ p_arg $ seed_arg $ jobs_arg $ no_dedup_arg
      $ quiet_arg $ stats_arg $ chrome_arg $ metrics_arg $ profile_arg)

(* ---- networked whiteboard (wb_net) ----------------------------------- *)

let timeout_arg =
  Arg.(
    value & opt float 5.0
    & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-connection read timeout")

let max_rounds_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-rounds" ] ~docv:"R" ~doc:"Round cutoff (default 2n+8)")

let session_arg =
  Arg.(value & opt string "main" & info [ "session" ] ~docv:"NAME" ~doc:"Session name")

let serve_cmd =
  let port_arg =
    Arg.(value & opt int 7117 & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (0 = ephemeral)")
  in
  let max_sessions_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-sessions" ] ~docv:"K" ~doc:"Exit after $(docv) completed sessions")
  in
  let run key family n p seed adv port timeout max_sessions max_rounds profile =
    apply_profile profile;
    with_entry key (fun e ->
        let g = make_graph ~family ~n ~p ~seed in
        let spec =
          { Net.Server.key;
            protocol = e.protocol;
            graph = g;
            make_adversary = (fun () -> make_adversary adv g seed);
            max_rounds;
            timeout;
            trace = None }
        in
        match Net.Server.create ~port spec with
        | exception Unix.Unix_error (err, _, _) ->
          Printf.eprintf "wbctl: cannot listen on port %d: %s\n" port (Unix.error_message err);
          exit 1
        | server ->
          Printf.printf
            "refereeing %s on %s (%d nodes, seed %d, adversary %s) — listening on port %d\n%!" key
            family (G.Graph.n g) seed adv (Net.Server.port server);
          Net.Server.serve ?max_sessions server)
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Host a networked referee: the board lives here, nodes join remotely")
    Term.(
      const run $ key_arg $ family_arg $ n_arg $ p_arg $ seed_arg $ adversary_arg $ port_arg
      $ timeout_arg $ max_sessions_arg $ max_rounds_arg $ profile_arg)

let join_cmd =
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Referee host")
  in
  let port_arg = Arg.(value & opt int 7117 & info [ "port" ] ~docv:"PORT" ~doc:"Referee port") in
  let node_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "node" ] ~docv:"ID" ~doc:"Claim this node (1-based; default: server picks)")
  in
  let run key host port session node timeout =
    with_entry key (fun e ->
        let node_pref =
          match node with
          | None -> None
          | Some v when v >= 1 -> Some (v - 1)
          | Some v ->
            Printf.eprintf "wbctl: --node %d: node ids are 1-based\n" v;
            exit 1
        in
        let conn = connect ~host ~port ~timeout in
        let client = Net.Client.create ~protocol:e.protocol ~key ~session ?node_pref () in
        match Net.Client.run client conn with
        | Error msg ->
          Printf.eprintf "wbctl: session failed: %s\n" msg;
          exit 1
        | Ok fin ->
          (match Net.Client.node_id client with
          | Some v -> Printf.printf "joined %s as node %d\n" session (v + 1)
          | None -> ());
          Printf.printf "outcome: %s (%s) after %d rounds\n" fin.Net.Client.outcome
            fin.Net.Client.detail fin.Net.Client.rounds;
          (match Net.Client.board client with
          | Some b ->
            Printf.printf "final board: %d messages, %d bits\n" (P.Board.length b)
              (P.Board.total_bits b)
          | None -> ());
          if fin.Net.Client.outcome <> "success" then exit 2)
  in
  Cmd.v
    (Cmd.info "join" ~doc:"Join a remote session, speaking for exactly one node")
    Term.(const run $ key_arg $ host_arg $ port_arg $ session_arg $ node_arg $ timeout_arg)

let remote_run_cmd =
  let transport_arg =
    Arg.(
      value & opt string "loopback"
      & info [ "transport" ] ~docv:"T" ~doc:"loopback (deterministic, in-process) or socket")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Differential check: the networked run must equal Engine.run under the same seed")
  in
  let flight_tail = 512 in
  (* With --chrome, the merged file has one lane for the driver, one for the
     referee (its session, RPC and fault spans around the kernel's events)
     and one per node client, causally linked through the wire's
     trace-context field. *)
  let run key family n p seed adv transport check timeout max_rounds chrome metrics =
    with_entry key (fun e ->
        let g = make_graph ~family ~n ~p ~seed in
        let n_nodes = G.Graph.n g in
        Printf.printf "graph: %s on %d nodes, %d edges (seed %d)   transport: %s\n" family
          n_nodes (G.Graph.num_edges g) seed transport;
        let tracing = chrome <> None in
        (* The referee collector is always attached: it doubles as the flight
           recorder dumped when the run deadlocks or diverges. *)
        let session_sink, session_events = Obs.Trace.collector () in
        let driver_sink, driver_events = Obs.Trace.collector () in
        let minter = Obs.Span.minter ~seed:(seed lxor 0x5eed) () in
        let root =
          if tracing then
            Some
              (Obs.Span.start
                 ~attrs:[ ("transport", transport); ("protocol", key) ]
                 minter driver_sink "remote-run")
          else None
        in
        let parent = Option.map Obs.Span.context root in
        let client_sinks =
          Array.init n_nodes (fun _ -> if tracing then Some (Obs.Trace.collector ()) else None)
        in
        let client_trace v = Option.map fst client_sinks.(v) in
        let result =
          match transport with
          | "loopback" ->
            Ok
              (Net.Remote.run_loopback ~protocol:e.protocol ?max_rounds ~trace:session_sink
                 ?parent ~client_trace g (make_adversary adv g seed))
          | "socket" ->
            Net.Remote.run_socket ~timeout ?max_rounds ~trace:session_sink ?parent ~client_trace
              ~key ~protocol:e.protocol ~graph:g
              ~make_adversary:(fun () -> make_adversary adv g seed)
              ()
          | other ->
            Printf.eprintf "wbctl: unknown transport %s (loopback or socket)\n" other;
            exit 1
        in
        match result with
        | Error msg ->
          Printf.eprintf "wbctl: remote run failed: %s\n" msg;
          exit 1
        | Ok { Net.Session.run = remote; faults; deaths = _ } ->
          List.iter
            (fun (v, fault) ->
              Printf.printf "node %d fault: %s\n" (v + 1) (Net.Session.fault_to_string fault))
            faults;
          let code = print_run g (e.problem n_nodes) remote in
          let code =
            if not check then code
            else begin
              let local = P.Engine.run_packed ?max_rounds e.protocol g (make_adversary adv g seed) in
              match Net.Remote.diff_runs remote local with
              | [] ->
                print_endline "differential vs Engine.run: identical";
                code
              | issues ->
                print_endline "differential vs Engine.run: MISMATCH";
                List.iter (fun i -> print_endline ("  " ^ i)) issues;
                2
            end
          in
          (match root with
          | Some s -> Obs.Span.finish ~round:remote.P.Engine.stats.rounds driver_sink s
          | None -> ());
          (match chrome with
          | None -> ()
          | Some file ->
            write_chrome_merge file
              (("driver", driver_events ())
              :: ("referee", session_events ())
              :: List.init n_nodes (fun v ->
                     ( Printf.sprintf "node-%d" (v + 1),
                       match client_sinks.(v) with Some (_, events) -> events () | None -> [] ))));
          write_metrics metrics;
          if code <> 0 then begin
            let flight =
              match chrome with
              | Some f -> Filename.remove_extension f ^ ".flight.jsonl"
              | None -> "wbctl-remote-run.flight.jsonl"
            in
            write_flight ~tail:flight_tail flight (session_events ());
            Printf.printf "replay: wbctl remote-run %s -g %s -n %d -p %g --seed %d -a %s \
                           --transport %s%s%s\n"
              key family n p seed adv transport
              (match max_rounds with
              | Some r -> Printf.sprintf " --max-rounds %d" r
              | None -> "")
              (if check then " --check" else "");
            exit code
          end)
  in
  Cmd.v
    (Cmd.info "remote-run"
       ~doc:
         "Run a session through the wb_net referee with n in-process clients and print the usual \
          report")
    Term.(
      const run $ key_arg $ family_arg $ n_arg $ p_arg $ seed_arg $ adversary_arg $ transport_arg
      $ check_arg $ timeout_arg $ max_rounds_arg $ chrome_arg $ metrics_arg)

let chaos_cmd =
  let plan_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Fault plan: a preset name (default, drop-heavy, wire-garbage, disconnect@R) or a \
             JSON plan file (schema in docs/CHAOS.md)")
  in
  let runs_arg =
    Arg.(value & opt int 16 & info [ "runs" ] ~docv:"R" ~doc:"Campaign size (faulted runs)")
  in
  let report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Write the campaign report (JSON, schema 1) to $(docv) — byte-identical across \
             same-seed reruns")
  in
  let flight_tail = 512 in
  (* "disconnect@R" names the kill-one-node-at-round-R preset for any R;
     the presets list only carries its R=3 instance. *)
  let disconnect_preset spec =
    match String.split_on_char '@' spec with
    | [ "disconnect"; r ] -> (
      match int_of_string_opt r with
      | Some round when round >= 0 -> Some (Chaos.Plan.disconnect ~round)
      | _ -> None)
    | _ -> None
  in
  let resolve_plan = function
    | None -> Chaos.Plan.default
    | Some spec -> (
      match
        List.find_opt
          (fun (p : Chaos.Plan.t) -> String.equal p.Chaos.Plan.name spec)
          Chaos.Plan.presets
      with
      | Some p -> p
      | None -> (
        match disconnect_preset spec with
        | Some p -> p
        | None ->
          let text =
            try In_channel.with_open_bin spec In_channel.input_all
            with Sys_error msg ->
              Printf.eprintf "wbctl: cannot read plan %s: %s\n" spec msg;
              exit 1
          in
          (match Chaos.Plan.of_string text with
          | Ok p -> p
          | Error msg ->
            Printf.eprintf "wbctl: invalid plan %s: %s\n" spec msg;
            exit 1)))
  in
  (* With --chrome, one campaign run (the first mismatching one, else run
     0) is re-executed with full telemetry for the merged trace. *)
  let run key family n p seed adv plan_spec runs max_rounds report_out chrome metrics =
    with_entry key (fun e ->
        let g = make_graph ~family ~n ~p ~seed in
        let n_nodes = G.Graph.n g in
        let plan = resolve_plan plan_spec in
        Printf.printf "graph: %s on %d nodes, %d edges   plan: %s   seed %d, %d runs\n" family
          n_nodes (G.Graph.num_edges g) plan.Chaos.Plan.name seed runs;
        let inst =
          { Chaos.Campaign.key;
            protocol = e.protocol;
            graph = g;
            graph_desc = family;
            adversary_name = adv;
            make_adversary = (fun ~seed -> make_adversary adv g seed);
            max_rounds }
        in
        let progress (r : Chaos.Campaign.run_record) =
          Printf.printf "run %2d: %-14s %2d faults injected, %d dead, differential %s\n"
            r.Chaos.Campaign.index r.Chaos.Campaign.outcome
            (List.length r.Chaos.Campaign.injected)
            (List.length r.Chaos.Campaign.deaths)
            (if List.is_empty r.Chaos.Campaign.mismatches then "identical" else "MISMATCH")
        in
        let campaign = Chaos.Campaign.run ~progress ~seed ~runs ~plan inst in
        print_endline (Chaos.Campaign.summary_line campaign);
        (match report_out with
        | None -> ()
        | Some file ->
          let oc = open_out_or_die file in
          Obs.Json.to_channel oc (Chaos.Campaign.to_json campaign);
          output_char oc '\n';
          close_out oc;
          Printf.printf "campaign report: %s\n" file);
        (* The campaign's registry, before any re-traced run adds to it. *)
        write_metrics metrics;
        (* Re-execute one run with full telemetry: the failing one when the
           differential broke, run 0 when --chrome asked for a trace anyway.
           Derivation depends only on (seed, index), so the re-execution
           injects the identical fault schedule. *)
        let retrace index ~chrome ~flight =
          let session_sink, session_events = Obs.Trace.collector () in
          let driver_sink, driver_events = Obs.Trace.collector () in
          let minter = Obs.Span.minter ~seed:(seed lxor 0xc4a05) () in
          let root =
            Obs.Span.start
              ~attrs:[ ("protocol", key); ("chaos-run", string_of_int index) ]
              minter driver_sink "chaos-run"
          in
          let client_sinks = Array.init n_nodes (fun _ -> Obs.Trace.collector ()) in
          let client_trace v = Some (fst client_sinks.(v)) in
          let r =
            Chaos.Campaign.run_once ~trace:session_sink ~parent:(Obs.Span.context root)
              ~client_trace ~seed ~index ~plan inst
          in
          Obs.Span.finish ~round:r.Chaos.Campaign.rounds driver_sink root;
          (match chrome with
          | None -> ()
          | Some file ->
            write_chrome_merge file
              (("driver", driver_events ())
              :: ("referee", session_events ())
              :: List.init n_nodes (fun v ->
                     (Printf.sprintf "node-%d" (v + 1), (snd client_sinks.(v)) ()))));
          match flight with
          | None -> ()
          | Some file -> write_flight ~tail:flight_tail file (session_events ())
        in
        match
          List.find_opt
            (fun r -> not (List.is_empty r.Chaos.Campaign.mismatches))
            campaign.Chaos.Campaign.records
        with
        | None -> Option.iter (fun file -> retrace 0 ~chrome:(Some file) ~flight:None) chrome
        | Some r ->
          Printf.printf "differential MISMATCH at run %d (run seed %d, adversary seed %d):\n"
            r.Chaos.Campaign.index r.Chaos.Campaign.run_seed r.Chaos.Campaign.adversary_seed;
          List.iter (fun i -> print_endline ("  " ^ i)) r.Chaos.Campaign.mismatches;
          let flight =
            match chrome with
            | Some f -> Filename.remove_extension f ^ ".flight.jsonl"
            | None -> "wbctl-chaos.flight.jsonl"
          in
          retrace r.Chaos.Campaign.index ~chrome ~flight:(Some flight);
          Printf.printf "replay: wbctl chaos %s -g %s -n %d -p %g --seed %d -a %s --runs %d%s%s\n"
            key family n p seed adv runs
            (match plan_spec with Some s -> " --plan " ^ s | None -> "")
            (match max_rounds with
            | Some r -> Printf.sprintf " --max-rounds %d" r
            | None -> "");
          exit 2)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a seeded fault-injection campaign against the networked referee: each faulted \
          loopback run is crash-replayed in process and differentially checked; any mismatch \
          dumps the flight ring, re-traces the failing run and exits 2")
    Term.(
      const run $ key_arg $ family_arg $ n_arg $ p_arg $ seed_arg $ adversary_arg $ plan_arg
      $ runs_arg $ max_rounds_arg $ report_arg $ chrome_arg $ metrics_arg)

let top_cmd =
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc:"Referee host")
  in
  let port_arg = Arg.(value & opt int 7117 & info [ "port" ] ~docv:"PORT" ~doc:"Referee port") in
  let watch_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "watch" ] ~docv:"SECONDS" ~doc:"Refresh every $(docv) seconds until interrupted")
  in
  let openmetrics_arg =
    Arg.(
      value & flag
      & info [ "openmetrics" ]
          ~doc:"Print the referee's registry in OpenMetrics text form (METRICS RPC) instead of \
                the telemetry table")
  in
  (* One TELEMETRY probe serves the table and, with --events, the
     referee's whole flight-recorder ring; --openmetrics alone needs only
     the METRICS probe. *)
  let run host port timeout watch openmetrics events =
    let once () =
      if Option.is_some events || not openmetrics then begin
        let tail = if Option.is_some events then Net.Server.ring_capacity else 0 in
        let metrics, lines, dropped =
          probe ~host ~port ~timeout (Net.Wire.Telemetry_request { tail }) (function
            | Net.Wire.Telemetry_reply { metrics; events; dropped } -> Some (metrics, events, dropped)
            | _ -> None)
        in
        Option.iter
          (fun file ->
            write_lines file lines;
            Printf.printf "flight recorder: %d events -> %s (%d dropped or withheld)\n\n"
              (List.length lines) file dropped)
          events;
        if not openmetrics then print_telemetry metrics
      end;
      if openmetrics then
        print_string (probe ~host ~port ~timeout Net.Wire.Metrics_request metrics_body)
    in
    match watch with
    | None -> once ()
    | Some secs when secs <= 0. ->
      prerr_endline "wbctl: --watch SECONDS must be positive";
      exit 1
    | Some secs ->
      let rec loop () =
        once ();
        print_newline ();
        flush stdout;
        Unix.sleepf secs;
        loop ()
      in
      loop ()
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live metrics from a running referee over the TELEMETRY RPC: counters, gauges, and the \
          net.rpc.* latency percentiles; with --events, also its flight-recorder ring")
    Term.(const run $ host_arg $ port_arg $ timeout_arg $ watch_arg $ openmetrics_arg $ events_arg)

let synth_cmd =
  let problem_arg =
    Arg.(
      value & opt string "triangle"
      & info [ "problem" ] ~docv:"PROBLEM" ~doc:"triangle, connectivity, has-edge, edge-parity")
  in
  let model_arg =
    Arg.(value & opt string "simasync" & info [ "model" ] ~docv:"MODEL" ~doc:"simasync or simsync")
  in
  let run problem model n maxb =
    let answer =
      match problem with
      | "triangle" -> G.Algo.has_triangle
      | "connectivity" -> G.Algo.is_connected
      | "has-edge" -> fun g -> G.Graph.num_edges g > 0
      | "edge-parity" -> fun g -> G.Graph.num_edges g mod 2 = 0
      | other -> invalid_arg ("unknown problem: " ^ other)
    in
    let spec =
      Wb_synth.Simasync_synth.bool_spec ~name:problem ~universe:(G.Gen.all_labelled_graphs n) answer
    in
    let result =
      match model with
      | "simasync" -> Wb_synth.Simasync_synth.min_alphabet ~n spec ~max:maxb
      | "simsync" -> Wb_synth.Simsync_synth.min_alphabet ~n spec ~max:maxb
      | other -> invalid_arg ("unknown model: " ^ other)
    in
    match result with
    | Some b -> Printf.printf "%s/%s at n=%d: minimal alphabet %d\n" problem model n b
    | None -> Printf.printf "%s/%s at n=%d: no protocol with <= %d letters\n" problem model n maxb
  in
  let maxb_arg = Arg.(value & opt int 4 & info [ "max" ] ~docv:"B" ~doc:"Largest alphabet tried") in
  Cmd.v
    (Cmd.info "synth" ~doc:"Exhaustive protocol-existence search at tiny n")
    Term.(const run $ problem_arg $ model_arg $ Arg.(value & opt int 3 & info [ "n" ]) $ maxb_arg)

let counting_cmd =
  let run n =
    Printf.printf "Lemma 3 floors at n=%d (bits per node to BUILD the class):\n" n;
    List.iter
      (fun cls ->
        Printf.printf "  %-36s %d\n" cls.Wb_reductions.Counting.name
          (Wb_reductions.Counting.min_message_bits cls n))
      [ Wb_reductions.Counting.all_graphs;
        Wb_reductions.Counting.balanced_bipartite;
        Wb_reductions.Counting.even_odd_bipartite;
        Wb_reductions.Counting.labelled_trees;
        Wb_reductions.Counting.isolated_tail ~f:(fun n -> n / 2) ]
  in
  Cmd.v
    (Cmd.info "counting" ~doc:"Print the Lemma 3 information floors")
    Term.(const run $ n_arg)

let cost_cmd =
  let protocol_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "protocol" ] ~docv:"KEY"
          ~doc:"Sweep only this registry protocol (default: every registered protocol)")
  in
  let sweep_arg =
    Arg.(
      value & opt string "16,64,256,1024"
      & info [ "sweep" ] ~docv:"N1,N2,.."
          ~doc:
            "Comma-separated node counts; two-cliques entries round to the even size below, \
             and an entry skips the sizes below its smallest instance (k + 1 nodes for a \
             k-degenerate promise) and any size whose instance size it has already measured")
  in
  let cost_seed_arg =
    Arg.(value & opt int 2012 & info [ "seed" ] ~docv:"SEED" ~doc:"Instance-generation seed")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write the verdict table as a schema-2 bench report, the format of \
             BENCH_cost.json; it is byte-identical across same-seed runs")
  in
  let run protocol sweep seed json =
    let ns =
      try
        List.map
          (fun s ->
            let n = int_of_string (String.trim s) in
            if n < 2 then failwith "size below 2";
            n)
          (String.split_on_char ',' sweep)
      with _ ->
        prerr_endline "wbctl: --sweep expects a comma-separated list of sizes >= 2";
        exit 1
    in
    let entries =
      match protocol with
      | None -> Wb_protocols.Registry.all ()
      | Some key -> with_entry key (fun e -> [ e ])
    in
    exit_on_failure (fun () ->
        let rep, violations = Wb_bench.Cost.sweep ~entries ~seed ~fast:false ~ns () in
        Option.iter (fun out -> Wb_bench.Report.write ~out rep) json;
        Wb_bench.Cost.fail_on_violations violations)
  in
  Cmd.v
    (Cmd.info "cost"
       ~doc:
         "Sweep the registry's cost certificates: measured worst message vs closed-form envelope \
          vs Lemma 3 floor across a range of sizes, exiting 2 on any violation")
    Term.(const run $ protocol_arg $ sweep_arg $ cost_seed_arg $ json_arg)

let bench_cmd =
  let suites =
    Wb_bench.
      [ ("table1", Table1.run);
        ("table2", Table2.run);
        ("fig", Fig.run);
        ("msgsize", Msgsize.run);
        ("lattice", Lattice.run);
        ("synth", Synth.run);
        ("congest", Congest.run);
        ("cost", Cost.run);
        ("open", Openproblems.run);
        ("explore", Explore.run);
        ("chaos", Chaos.run) ]
  in
  let names = String.concat ", " (List.map fst suites) in
  let all_arg = Arg.(value & flag & info [ "all" ] ~doc:"Run every suite") in
  let fast_arg =
    Arg.(value & flag & info [ "fast" ] ~doc:"Trimmed sizes, as pinned by the test/bench goldens")
  in
  let bench_seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED" ~doc:"Override each suite's default seed")
  in
  let names_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"SUITE" ~doc:("Suites to run: " ^ names))
  in
  let run all fast seed requested =
    let chosen =
      if all then suites
      else if requested = [] then begin
        Printf.eprintf "wbctl: name at least one suite (%s) or pass --all\n" names;
        exit 1
      end
      else
        List.map
          (fun n ->
            match List.assoc_opt n suites with
            | Some f -> (n, f)
            | None ->
              Printf.eprintf "wbctl: unknown suite %S (available: %s)\n" n names;
              exit 1)
          requested
    in
    List.iter
      (fun (_, (f : ?seed:int -> ?fast:bool -> ?out:string -> unit -> unit)) ->
        exit_on_failure (fun () -> f ?seed ~fast ()))
      chosen
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Regenerate the paper's tables and the extension experiments: each suite prints a \
          deterministic table and writes BENCH_<suite>.json, exiting 2 on a failed check")
    Term.(const run $ all_arg $ fast_arg $ bench_seed_arg $ names_arg)

let graph_cmd =
  let run family n p seed =
    let g = make_graph ~family ~n ~p ~seed in
    Printf.printf "graph6: %s\n" (G.Graph6.encode g);
    Format.printf "%a@." G.Graph.pp g;
    let k, _ = G.Algo.degeneracy g in
    Printf.printf "degeneracy: %d   components: %d   eob: %b   triangle: %b\n" k
      (G.Algo.num_components g)
      (G.Algo.is_even_odd_bipartite g)
      (G.Algo.has_triangle g)
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Generate a graph and print its properties")
    Term.(const run $ family_arg $ n_arg $ p_arg $ seed_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "wbctl" ~version:"1.0.0" ~doc:"Shared-whiteboard distributed computing laboratory")
          [ models_cmd; protocols_cmd; run_cmd; explore_cmd; serve_cmd; join_cmd; remote_run_cmd;
            chaos_cmd; top_cmd; bench_cmd; synth_cmd; counting_cmd; cost_cmd; graph_cmd ]))
