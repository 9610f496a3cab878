(* Standalone validator for the telemetry artifacts the toolchain emits:
   JSONL event traces, Chrome (Catapult) trace files, metrics snapshots and
   BENCH_<suite>.json bench reports.  Driven by the [check-obs] dune alias on
   freshly produced files; exits non-zero with a message on the first
   malformed artifact.

     check_trace.exe FILE...

   The kind of each FILE is inferred from its name: [*.jsonl] is an event
   trace, [BENCH_*.json] a bench report, a name containing [chrome] a
   Catapult trace, and anything else a metrics snapshot. *)

module J = Wb_obs.Json
module E = Wb_obs.Event

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("check_trace: " ^ msg); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  body

let parse path body =
  match J.of_string body with
  | Ok v -> v
  | Error msg -> fail "%s: invalid JSON: %s" path msg

let require path v k =
  match J.member k v with None -> fail "%s: missing %S member" path k | Some m -> m

(* --- event traces ----------------------------------------------------- *)

let check_jsonl ?(lenient = false) path =
  let lines =
    List.filteri
      (fun _ l -> String.trim l <> "")
      (String.split_on_char '\n' (read_file path))
  in
  if lines = [] then fail "%s: empty trace" path;
  let events =
    List.map
      (fun line ->
        match E.of_json (parse path line) with
        | Ok ev -> ev
        | Error msg -> fail "%s: bad event %S: %s" path line msg)
      lines
  in
  if lenient then
    (* Flight-recorder tails start mid-run (ring overwrites) and may span
       several sessions, so only well-formedness holds. *)
    Printf.printf "ok %-28s %d events (flight tail)\n" path (List.length events)
  else begin
  (match List.rev events with
  | E.Run_end _ :: _ -> ()
  | _ -> fail "%s: trace does not end with run_end" path);
  let activated = Hashtbl.create 64 in
  let last_start = ref 0 in
  List.iter
    (fun ev ->
      (match ev with
      | E.Activate { node; _ } -> Hashtbl.replace activated node ()
      | E.Write { node; _ } when not (Hashtbl.mem activated node) ->
        fail "%s: node %d writes before activating" path node
      | E.Round_start { round } when round <= !last_start ->
        fail "%s: round starts not strictly increasing at %d" path round
      | E.Round_start { round } -> last_start := round
      | _ -> ());
      ())
    events;
  Printf.printf "ok %-28s %d events\n" path (List.length events)
  end

(* --- chrome / catapult ------------------------------------------------- *)

(* Chrome traces carry spans as async "b"/"e" pairs with the span/parent ids
   in [args]; beyond shape, the causal structure must close: every non-root
   parent names a started span, at least one root exists, every "e" matches
   a "b", and a multi-process (merged) file names each of its processes. *)
let check_chrome path =
  let v = parse path (read_file path) in
  match J.to_list (require path v "traceEvents") with
  | None -> fail "%s: traceEvents is not a list" path
  | Some [] -> fail "%s: empty traceEvents" path
  | Some events ->
    let str_of e k = J.to_str (require path e k) in
    List.iter
      (fun e ->
        List.iter (fun k -> ignore (require path e k)) [ "name"; "ph"; "pid"; "tid" ];
        match str_of e "ph" with
        | Some "M" -> ()
        | _ -> ignore (require path e "ts"))
      events;
    let spans = Hashtbl.create 64 in
    let parents = ref [] in
    let roots = ref 0 in
    let begins = ref 0 in
    List.iter
      (fun e ->
        match str_of e "ph" with
        | Some "b" ->
          incr begins;
          let args = require path e "args" in
          let span =
            match J.to_int (require path args "span") with
            | Some s -> s
            | None -> fail "%s: span begin without an integer args.span" path
          in
          ignore (require path args "trace");
          if Hashtbl.mem spans span then fail "%s: duplicate span id %d" path span;
          Hashtbl.replace spans span ();
          (match J.member "parent" args with
          | None -> fail "%s: span begin without args.parent (null marks a root)" path
          | Some J.Null -> incr roots
          | Some p -> (
            match J.to_int p with
            | Some parent -> parents := (span, parent) :: !parents
            | None -> fail "%s: args.parent is neither null nor an integer" path))
        | _ -> ())
      events;
    List.iter
      (fun (span, parent) ->
        if not (Hashtbl.mem spans parent) then
          fail "%s: span %d has parent %d but no such span begins" path span parent)
      !parents;
    if !begins > 0 && !roots = 0 then fail "%s: spans present but no root span" path;
    List.iter
      (fun e ->
        match str_of e "ph" with
        | Some "e" -> (
          match str_of e "id" with
          | None -> fail "%s: span end without an id" path
          | Some id -> (
            match int_of_string_opt id with
            | Some span when Hashtbl.mem spans span -> ()
            | _ -> fail "%s: span end %s without a matching begin" path id))
        | _ -> ())
      events;
    let pids = Hashtbl.create 8 in
    let named = Hashtbl.create 8 in
    List.iter
      (fun e ->
        let pid = J.to_int (require path e "pid") in
        match (str_of e "ph", str_of e "name") with
        | Some "M", Some "process_name" ->
          Option.iter (fun p -> Hashtbl.replace named p ()) pid
        | _ -> Option.iter (fun p -> Hashtbl.replace pids p ()) pid)
      events;
    if Hashtbl.length pids > 1 then
      Hashtbl.iter
        (fun pid () ->
          if not (Hashtbl.mem named pid) then
            fail "%s: merged trace has unnamed process %d" path pid)
        pids;
    Printf.printf "ok %-28s %d trace events, %d spans (%d roots)\n" path (List.length events)
      !begins !roots

(* --- metrics snapshots -------------------------------------------------- *)

let check_metrics path =
  let v = parse path (read_file path) in
  List.iter
    (fun k ->
      match require path v k with
      | J.Obj _ -> ()
      | _ -> fail "%s: %S is not an object" path k)
    [ "counters"; "gauges"; "histograms" ];
  (match J.to_int (require path (require path v "counters") "engine.runs") with
  | Some n when n > 0 -> ()
  | _ -> fail "%s: engine.runs counter missing or zero" path);
  Printf.printf "ok %-28s metrics snapshot\n" path

(* --- bench reports -------------------------------------------------- *)

let check_bench path =
  let v = parse path (read_file path) in
  (match J.to_int (require path v "schema") with
  | Some 2 -> ()
  | Some n -> fail "%s: unsupported bench schema %d (want 2)" path n
  | None -> fail "%s: schema is not an int" path);
  (match J.to_str (require path v "bench") with
  | Some _ -> ()
  | None -> fail "%s: bench is not a string" path);
  (match J.to_int (require path v "seed") with
  | Some _ -> ()
  | None -> fail "%s: seed is not an int" path);
  ignore (require path v "params");
  (* A report is a function of its suite, seed and params: nothing that
     varies run to run may ride in it. *)
  List.iter
    (fun k -> if Option.is_some (J.member k v) then fail "%s: unexpected %S member" path k)
    [ "git"; "wall_s"; "metrics"; "registry" ];
  match J.to_list (require path v "rows") with
  | None -> fail "%s: rows is not a list" path
  | Some rows ->
    List.iter
      (fun r ->
        match J.to_str (require path r "name") with
        | Some _ -> ()
        | None -> fail "%s: row without a name" path)
      rows;
    Printf.printf "ok %-28s %d rows\n" path (List.length rows)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [] then fail "usage: check_trace FILE...";
  List.iter
    (fun path ->
      let base = Filename.basename path in
      let contains sub =
        let n = String.length base and m = String.length sub in
        let rec scan i = i + m <= n && (String.sub base i m = sub || scan (i + 1)) in
        scan 0
      in
      if Filename.check_suffix base ".jsonl" then
        check_jsonl ~lenient:(contains "flight") path
      else if String.length base >= 6 && String.sub base 0 6 = "BENCH_" then check_bench path
      else if contains "chrome" then check_chrome path
      else check_metrics path)
    args
