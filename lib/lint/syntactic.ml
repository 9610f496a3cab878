open Parsetree

(* Longident components with any leading [Stdlib.] stripped, so
   [Stdlib.Random.int] and [Random.int] classify identically. *)
let ident_components lid =
  match Longident.flatten lid with "Stdlib" :: rest -> rest | comps -> comps

let blocking_unix = [ "read"; "write"; "single_write"; "select"; "sleep"; "sleepf";
                      "recv"; "send"; "accept"; "connect"; "wait"; "waitpid" ]

let hashing = [ "hash"; "seeded_hash"; "hash_param"; "seeded_hash_param" ]

let is_with_lock_ident (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
    match Longident.flatten txt with
    | [] -> false
    | comps -> String.equal (List.nth comps (List.length comps - 1)) "with_lock")
  | _ -> false

let lint_structure ~path ~ctx str =
  let findings = ref [] in
  let add rule loc msg =
    if not (Allow.suppressed ctx ~rule) then
      findings := Finding.make ~rule ~loc msg :: !findings
  in
  let decode_file = Rules.is_decode_file path in
  let det_exempt = Rules.determinism_exempt path in
  let lock_exempt = Rules.lock_exempt path in
  let prof_exempt = Rules.prof_exempt path in
  let in_critical = ref false in
  let in_decode = ref false in
  (* [Prof.phase] wraps a wall-clock read, whatever module path it is
     reached through (Prof.phase, Obs.Prof.phase, Wb_obs.Prof.phase). *)
  let rec is_prof_phase = function
    | [ "Prof"; "phase" ] -> true
    | _ :: tl -> is_prof_phase tl
    | [] -> false
  in
  let check_ident loc lid =
    let comps = ident_components lid in
    (if (not prof_exempt) && is_prof_phase comps then
       add Rules.determinism loc
         "Prof.phase reads the wall clock; profiling hooks stay in lib/obs, \
          lib/net and lib/core, never in model, protocol or bench code");
    (if not det_exempt then
       match comps with
       | "Random" :: _ :: _ ->
         add Rules.determinism loc
           "Stdlib.Random breaks seed-replayability; route randomness through \
            Wb_support.Prng"
       | [ "Hashtbl"; f ] when List.mem f hashing ->
         add Rules.determinism loc
           (Printf.sprintf
              "Hashtbl.%s is polymorphic structural hashing with \
               unspecified-per-version output; derive a deterministic key instead"
              f)
       | [ "Sys"; "time" ] | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] ->
         add Rules.determinism loc
           "wall-clock reads make runs unreplayable; only lib/obs and lib/net may \
            time (wall-clock benchmarks live in perfbench)"
       | _ -> ());
    (if not lock_exempt then
       match comps with
       | [ "Mutex"; ("lock" | "unlock" | "try_lock") ] ->
         add Rules.lock_discipline loc
           (Printf.sprintf
              "raw Mutex.%s leaks the lock if the critical section raises; use \
               with_lock (lib/support/sync.ml)"
              (List.nth comps 1))
       | _ -> ());
    (if !in_critical then
       match comps with
       | [ "Unix"; f ] when List.mem f blocking_unix ->
         add Rules.lock_discipline loc
           (Printf.sprintf
              "blocking Unix.%s inside a with_lock critical section can stall \
               every other thread on this lock"
              f)
       | [ "Thread"; "delay" ] ->
         add Rules.lock_discipline loc
           "Thread.delay inside a with_lock critical section stalls every other \
            thread on this lock"
       | _ -> ());
    if decode_file && !in_decode then
      match comps with
      | [ ("failwith" | "invalid_arg") ] ->
        add Rules.decode_hygiene loc
          (Printf.sprintf
             "%s in a decode function: malformed input must become a typed error, \
              not an exception"
             (List.hd comps))
      | [ "List"; ("hd" | "tl") ] | [ "Option"; "get" ] ->
        add Rules.decode_hygiene loc
          (Printf.sprintf
             "partial %s in a decode function raises on malformed input; match \
              explicitly and return a typed error"
             (String.concat "." comps))
      | _ -> ()
  in
  let super = Ast_iterator.default_iterator in
  let rec expr it (e : expression) =
    Allow.with_attrs ctx e.pexp_attributes (fun () ->
        match e.pexp_desc with
        | Pexp_ident { txt; loc } ->
          check_ident loc txt;
          super.expr it e
        | Pexp_assert
            { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ }
          when decode_file && !in_decode ->
          add Rules.decode_hygiene e.pexp_loc
            "assert false in a decode function: even \"unreachable\" opcodes must \
             decode to a typed error";
          super.expr it e
        | Pexp_apply (fn, args) when is_with_lock_ident fn ->
          expr it fn;
          let saved = !in_critical in
          in_critical := true;
          List.iter (fun (_, a) -> expr it a) args;
          in_critical := saved
        | _ -> super.expr it e)
  in
  let value_binding it (vb : value_binding) =
    Allow.with_attrs ctx vb.pvb_attributes (fun () ->
        let name =
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt; _ }
          | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) ->
            Some txt
          | _ -> None
        in
        let saved = !in_decode in
        (match name with
        | Some n when decode_file && Rules.is_decode_name n -> in_decode := true
        | _ -> ());
        super.value_binding it vb;
        in_decode := saved)
  in
  let iter = { super with expr; value_binding } in
  iter.structure iter str;
  !findings

let lint_source ~path ~ctx source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf path;
  match Parse.implementation lexbuf with
  | str -> lint_structure ~path ~ctx str
  | exception exn ->
    let loc =
      match Location.error_of_exn exn with
      | Some (`Ok { Location.main = { loc; _ }; _ }) -> loc
      | _ -> Location.in_file path
    in
    [ Finding.make ~rule:Rules.parse_error ~loc
        (Printf.sprintf "file does not parse: %s" (Printexc.to_string exn)) ]
