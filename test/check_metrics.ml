(* Standalone validator for the opt-in profiling artifacts of the
   [check-prof] alias:

     check_metrics.exe (--expect-prof | --forbid-prof) FILE...

   Every *.om.txt FILE must be a grammatically valid OpenMetrics
   exposition (checked with the same Openmetrics.validate the unit tests
   pin down); every *.json FILE must be a metrics-registry snapshot.  In
   either form, prof.* series must be present under --expect and absent
   under --forbid — the on-disk proof that profiling is opt-in and that a
   never-enabled process registers nothing. *)

module J = Wb_obs.Json
module M = Wb_obs.Metrics

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("check_metrics: " ^ m); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  body

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* prof series in a registry snapshot: any counter, gauge or histogram
   named under "prof.". *)
let prof_in_json path body =
  let v =
    match J.of_string body with
    | Ok v -> v
    | Error msg -> fail "%s: invalid JSON: %s" path msg
  in
  (match J.member "histograms" v with
  | Some (J.Obj _) -> ()
  | Some _ -> fail "%s: histograms is not an object" path
  | None -> fail "%s: not a metrics snapshot (no histograms member)" path);
  let prefix = "prof." in
  List.exists
    (fun section ->
      match J.member section v with
      | Some (J.Obj kvs) -> List.exists (fun (k, _) -> starts_with ~prefix k) kvs
      | _ -> false)
    [ "counters"; "gauges"; "histograms" ]

(* prof series in an exposition: TYPE lines declaring a prof_ family. *)
let prof_in_om path body =
  (match M.Openmetrics.validate body with
  | Ok () -> ()
  | Error msg -> fail "%s: invalid OpenMetrics exposition: %s" path msg);
  let prefix = "# TYPE prof_" in
  List.exists (fun line -> starts_with ~prefix line) (String.split_on_char '\n' body)

let () =
  let expect, files =
    match List.tl (Array.to_list Sys.argv) with
    | "--expect-prof" :: files when files <> [] -> (true, files)
    | "--forbid-prof" :: files when files <> [] -> (false, files)
    | _ -> fail "usage: check_metrics (--expect-prof | --forbid-prof) FILE..."
  in
  List.iter
    (fun path ->
      let body = read_file path in
      let has =
        if Filename.check_suffix path ".json" then prof_in_json path body else prof_in_om path body
      in
      (match (expect, has) with
      | true, false -> fail "%s: expected prof.* series, found none" path
      | false, true -> fail "%s: found prof.* series in a run that never enabled them" path
      | _ -> ());
      Printf.printf "ok %-32s prof series %s\n" path (if has then "present" else "absent"))
    files
