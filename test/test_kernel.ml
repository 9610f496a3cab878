(* The execution kernel against independent oracles: the list-based
   specification in Spec_kernel under scripted protocols that reach the
   model's corners, the rank-based adversaries against their list
   definitions, and an allocation guard that pins the forward path's cost
   per write. *)
open Wb_model
module G = Wb_graph
module Mix = Wb_support.Mix
module Prng = Wb_support.Prng
module Rankset = Wb_support.Rankset

let check = Alcotest.(check bool)

(* ---- scripted protocols ------------------------------------------------ *)

(* A script fixes, from one seed, how often awake nodes activate, how often
   a composition faults and how often a payload exceeds the bound.  Every
   decision is then a hash of the seed, the node, the round, the board and
   the node's local state (its composition count), so a script is a pure
   function of the configuration: the same under any interpreter. *)
type script = { seed : int; activate_per_8 : int; fault_per_16 : int; oversize_per_16 : int }

let bound = 6

let hash script parts = List.fold_left Mix.combine script.seed parts land max_int

let script_of_seed seed =
  let h k = Mix.combine seed k land max_int in
  { seed;
    activate_per_8 = 1 + (h 1 mod 8);
    fault_per_16 = (if h 2 mod 3 = 0 then h 3 mod 4 else 0);
    oversize_per_16 = (if h 4 mod 3 = 0 then h 5 mod 3 else 0) }

let board_key board =
  Board.fold
    (fun acc m -> Mix.combine acc ((Message.author m * 64) + Message.size_bits m))
    17 board

(* [on_compose v size] sees every composition: [None] for a fault. *)
let scripted ?(on_compose = fun _ _ -> ()) model script : (module Machine.NODE) =
  (module struct
    let model = model

    let message_bound ~n:_ = bound

    type local = int

    let init _ = 0

    let wants_to_activate ~round view board local =
      hash script [ 1; View.id view; round; board_key board; local ] mod 8 < script.activate_per_8

    let compose ~round view board local =
      let v = View.id view in
      let h = hash script [ 2; v; round; board_key board; local ] in
      if h mod 16 < script.fault_per_16 then begin
        on_compose v None;
        None
      end
      else
        let size =
          if (h lsr 4) mod 16 < script.oversize_per_16 then bound + 1 + ((h lsr 8) mod 3)
          else (h lsr 8) mod (bound + 1)
        in
        on_compose v (Some size);
        let payload = Array.init size (fun i -> (h lsr (12 + i)) land 1 = 1) in
        Some (Message.make ~author:v ~payload, local + 1)

    let output ~n:_ board =
      if hash script [ 3; board_key board ] mod 32 = 0 then failwith "scripted output";
      Answer.Node_set (Array.to_list (Board.authors_in_order board))
  end)

type adversary = Min | Max | Random | Alternating | Avoider

let adversaries = [ Min; Max; Random; Alternating; Avoider ]

let adversary_name = function
  | Min -> "min"
  | Max -> "max"
  | Random -> "random"
  | Alternating -> "alternating"
  | Avoider -> "avoider"

(* The same strategy twice, each with its own identically seeded PRNG: the
   kernel's rank-based one and the specification's list-based one. *)
let kernel_adversary g seed = function
  | Min -> Adversary.min_id
  | Max -> Adversary.max_id
  | Random -> Adversary.random (Prng.create seed)
  | Alternating -> Adversary.alternating_extremes
  | Avoider -> Adversary.last_writer_neighbor_avoider g

let spec_adversary g seed = function
  | Min -> Spec_kernel.Adv.min_id
  | Max -> Spec_kernel.Adv.max_id
  | Random -> Spec_kernel.Adv.random (Prng.create seed)
  | Alternating -> Spec_kernel.Adv.alternating
  | Avoider -> Spec_kernel.Adv.avoider g

let machine_run (module N : Machine.NODE) g adv =
  let module M = Machine.Make (N) in
  let m = M.init g in
  let rec loop () =
    match M.step m with
    | `Choices cs ->
      M.pick m (Adversary.choose adv (M.board m) cs);
      loop ()
    | `Write _ -> loop ()
    | `Done run -> run
  in
  loop ()

let spec_run (module N : Machine.NODE) g adv =
  let module S = Spec_kernel.Make (N) in
  S.run g adv

(* Field-by-field differences between two runs; empty when they agree. *)
let diff (a : Machine.run) (b : Machine.run) =
  let ints name x y =
    if x <> y then
      [ Printf.sprintf "%s: [%s] vs [%s]" name
          (String.concat ";" (List.map string_of_int (Array.to_list x)))
          (String.concat ";" (List.map string_of_int (Array.to_list y))) ]
    else []
  in
  List.concat
    [ (if Machine.outcome_equal a.outcome b.outcome then []
       else [ Printf.sprintf "outcome: %s vs %s" (Machine.outcome_tag a.outcome) (Machine.outcome_tag b.outcome) ]);
      (if Machine.stats_equal a.stats b.stats then []
       else
         [ Printf.sprintf "stats: rounds %d/%d max %d/%d total %d/%d" a.stats.rounds b.stats.rounds
             a.stats.max_message_bits b.stats.max_message_bits a.stats.total_bits b.stats.total_bits ]);
      ints "writes" a.writes b.writes;
      ints "activation_round" a.activation_round b.activation_round;
      ints "write_round" a.write_round b.write_round;
      ints "compose_count" a.compose_count b.compose_count;
      ints "message_bits" a.message_bits b.message_bits ]

let models = [| Model.Sim_async; Model.Sim_sync; Model.Async; Model.Sync |]

type instance = { model : Model.t; adv : adversary; n : int; graph_seed : int; script_seed : int; adv_seed : int }

let instance_gen =
  QCheck.Gen.(
    map
      (fun ((mi, ai, n), (graph_seed, script_seed, adv_seed)) ->
        { model = models.(mi); adv = List.nth adversaries ai; n; graph_seed; script_seed; adv_seed })
      (pair (triple (int_bound 3) (int_bound 4) (int_range 1 8)) (triple nat nat nat)))

let print_instance i =
  Printf.sprintf "%s/%s n=%d graph=%d script=%d adversary=%d" (Model.name i.model)
    (adversary_name i.adv) i.n i.graph_seed i.script_seed i.adv_seed

let graph_of i = G.Gen.random_gnp (Prng.create i.graph_seed) i.n 0.5

let differential i =
  let g = graph_of i in
  let node = scripted i.model (script_of_seed i.script_seed) in
  let kernel = machine_run node g (kernel_adversary g i.adv_seed i.adv) in
  let spec = spec_run node g (spec_adversary g i.adv_seed i.adv) in
  match diff kernel spec with
  | [] -> true
  | d -> QCheck.Test.fail_reportf "kernel vs spec:@ %s" (String.concat "; " d)

(* The differential's pinned seed and count. *)
let spec_seed = 2012

let spec_count = 1500

let spec_tests =
  [ QCheck_alcotest.to_alcotest ~speed_level:`Quick
      ~rand:(Random.State.make [| spec_seed |])
      (QCheck.Test.make ~name:"Machine.Make agrees with the list specification" ~count:spec_count
         (QCheck.make ~print:print_instance instance_gen)
         differential);
    Alcotest.test_case "the scripts reach every corner of the model" `Quick (fun () ->
        (* The differential above is only as strong as the executions it
           sees: pin that the instances it draws reach late activation,
           size-changing recomposition, faults, and all four outcomes. *)
        let late = ref 0 and resized = ref 0 in
        (* Faults at activation (frozen models) and at recomposition. *)
        let faults = [| 0; 0 |] in
        let outcomes = Hashtbl.create 4 in
        List.iter
          (fun i ->
            let sizes = Hashtbl.create 8 in
            let on_compose v = function
              | None ->
                let k = if Model.frozen_at_activation i.model then 0 else 1 in
                faults.(k) <- faults.(k) + 1
              | Some s ->
                (match Hashtbl.find_opt sizes v with
                | Some s' when s' <> s -> incr resized
                | _ -> ());
                Hashtbl.replace sizes v s
            in
            let g = graph_of i in
            let run =
              machine_run (scripted ~on_compose i.model (script_of_seed i.script_seed)) g
                (kernel_adversary g i.adv_seed i.adv)
            in
            if Array.exists (fun r -> r > 1) run.activation_round then incr late;
            Hashtbl.replace outcomes (Machine.outcome_tag run.outcome) ())
          (QCheck.Gen.generate ~rand:(Random.State.make [| spec_seed |]) ~n:spec_count instance_gen);
        check "late activation" true (!late > 0);
        check "size-changing recomposition" true (!resized > 0);
        check "faulted composition" true (faults.(0) > 0);
        check "faulted recomposition" true (faults.(1) > 0);
        List.iter
          (fun tag -> check tag true (Hashtbl.mem outcomes tag))
          [ "success"; "deadlock"; "size_violation"; "output_error" ]) ]

(* ---- every schedule ------------------------------------------------------ *)

(* [verify] against the spec's enumeration of every schedule.  On
   [Protocol.opaque p] it must check exactly the runs the spec produces, as
   a multiset and at any [jobs]; where the traits declare confluence, the
   final boards it checks canonically must be the spec's (a subset of them
   when symmetry prunes orbits). *)

let outcome_key = function
  | Machine.Success a ->
    String.concat " " (String.split_on_char '\n' (Format.asprintf "success %a" Answer.pp a))
  | Machine.Deadlock -> "deadlock"
  | Machine.Size_violation { node; bits; bound } ->
    Printf.sprintf "size_violation %d %d/%d" node bits bound
  | Machine.Output_error e -> "output_error " ^ e

let messages board =
  List.map
    (fun m ->
      let bits = Message.payload m in
      Printf.sprintf "%d:%s" (Message.author m)
        (String.init (Array.length bits) (fun i -> if bits.(i) then '1' else '0')))
    (Board.to_list board)

(* Every field of a run, and the board's messages in write order. *)
let run_key (r : Machine.run) =
  let ints a = String.concat "," (List.map string_of_int (Array.to_list a)) in
  String.concat " | "
    [ outcome_key r.outcome;
      ints r.writes;
      Printf.sprintf "rounds %d max %d total %d" r.stats.rounds r.stats.max_message_bits
        r.stats.total_bits;
      ints r.activation_round;
      ints r.write_round;
      ints r.message_bits;
      ints r.compose_count;
      String.concat " " (messages r.board) ]

(* A final board: the outcome and the board's messages as a set. *)
let final_key (r : Machine.run) =
  outcome_key r.outcome ^ " | " ^ String.concat " " (List.sort String.compare (messages r.board))

(* [verify]'s result with [verdict] as its check, and the keys of the runs
   it checks, sorted.  [check] runs on every worker, and a run's board is
   only valid during the call. *)
let checked ?jobs ?(verdict = fun _ -> true) protocol g key =
  let lock = Mutex.create () and keys = ref [] in
  let record r =
    let k = key r in
    Wb_support.Sync.with_lock lock (fun () -> keys := k :: !keys);
    verdict r
  in
  match Engine.verify_packed ?jobs protocol g record with
  | Ok v -> (v, List.sort String.compare !keys)
  | Error (`Limit l) -> Alcotest.failf "verify hit its limit (%d)" l

let spec_runs protocol g =
  let module S = Spec_kernel.Make ((val Spec_kernel.node_of protocol)) in
  S.all_runs g

(* The first key in one sorted list and not the other. *)
let rec first_difference verify spec =
  match (verify, spec) with
  | [], [] -> "none"
  | k :: _, [] -> "verify only: " ^ k
  | [], k :: _ -> "spec only: " ^ k
  | a :: verify', b :: spec' ->
    let c = String.compare a b in
    if c = 0 then first_difference verify' spec'
    else if c < 0 then "verify only: " ^ a
    else "spec only: " ^ b

(* The check [enumeration_mismatch] hands [verify]: it rejects the runs in
   which a node other than 0 writes first, which some instances have and
   some do not. *)
let node_0_first (r : Machine.run) = Array.length r.writes = 0 || r.writes.(0) = 0

(* [verify] must check the spec's runs and report the verdict the spec's
   runs give. *)
let enumeration_mismatch ~spec protocol g =
  let valid = List.for_all node_0_first spec in
  let spec = List.sort String.compare (List.map run_key spec) in
  List.find_map
    (fun jobs ->
      let v, seen = checked ~jobs ~verdict:node_0_first (Protocol.opaque protocol) g run_key in
      if not (List.equal String.equal seen spec) then
        Some
          (Printf.sprintf "jobs %d: verify checked %d runs, the spec has %d (%s)" jobs
             (List.length seen) (List.length spec) (first_difference seen spec))
      else if v.Engine.valid <> valid then
        Some
          (Printf.sprintf "jobs %d: verify reports valid = %b, the spec's runs give %b" jobs
             v.Engine.valid valid)
      else None)
    [ 1; 3 ]

let canonical_mismatch ~spec protocol g =
  let spec = List.sort_uniq String.compare (List.map final_key spec) in
  let v, seen = checked protocol g final_key in
  let seen = List.sort_uniq String.compare seen in
  let ok =
    if v.Engine.group_order = 1 then List.equal String.equal seen spec
    else List.for_all (fun k -> List.mem k spec) seen
  in
  if ok then None
  else
    Some
      (Printf.sprintf "|Aut| = %d: verify checked %d final boards, the spec reaches %d (%s)"
         v.Engine.group_order (List.length seen) (List.length spec) (first_difference seen spec))

(* [output] is a pure function of the board in write order, so the runs of
   one interpreter over one instance can share its answers.  The spec and
   the [verify] passes each get their own memo, so every outcome [verify]
   reports is decoded under [verify]'s own backtracking. *)
let memo_output (module P : Protocol.S) : Protocol.t =
  let lock = Mutex.create () and answers = Hashtbl.create 64 in
  (module struct
    include P

    let output ~n board =
      let key = String.concat " " (messages board) in
      let answer =
        match Wb_support.Sync.with_lock lock (fun () -> Hashtbl.find_opt answers key) with
        | Some a -> a
        | None ->
          let a = match P.output ~n board with a -> Ok a | exception e -> Error e in
          Wb_support.Sync.with_lock lock (fun () -> Hashtbl.replace answers key a);
          a
      in
      match answer with Ok a -> a | Error e -> raise e
  end)

(* The registry's promise instances, at every n the spec enumerates
   quickly: the sketch entries decode slowly, so they stop at n = 5, and an
   entry starts at n = 3 or at its least size, whichever is larger (n = k + 1
   for a k-degenerate entry, the smallest k-tree).  That is 71 instances of
   the 20 entries. *)
let oracle_seed = 2012

let oracle_instances = 71

let registry_instances =
  lazy
    (List.concat_map
       (fun (e : Wb_protocols.Registry.entry) ->
         let smallest = max 3 (Wb_protocols.Registry.least_n e) in
         let largest = if String.ends_with ~suffix:"-sketch" e.key then 5 else 6 in
         List.filter_map
           (fun n ->
             if n < smallest || n > largest then None
             else
               let g = Wb_protocols.Registry.sweep_graph e ~seed:oracle_seed ~n in
               let spec = spec_runs (memo_output e.protocol) g in
               Some (Printf.sprintf "%s n=%d" e.key n, memo_output e.protocol, g, spec))
           [ 3; 4; 5; 6 ])
       (Wb_protocols.Registry.all ()))

let over_registry mismatch =
  let instances = Lazy.force registry_instances in
  Alcotest.(check int) "instances" oracle_instances (List.length instances);
  let failures =
    List.filter_map
      (fun (name, protocol, g, spec) ->
        Option.map (fun m -> name ^ ": " ^ m) (mismatch ~spec protocol g))
      instances
  in
  if failures <> [] then Alcotest.fail (String.concat "\n" failures)

let enumeration_tests =
  [ Alcotest.test_case "the spec runs each schedule once" `Quick (fun () ->
        (* Under SIMASYNC every order of the n writes is a schedule. *)
        List.iter
          (fun (name, protocol, g, spec) ->
            if Protocol.model protocol = Model.Sim_async then begin
              let n = G.Graph.n g in
              let orders = List.sort_uniq compare (List.map (fun (r : Machine.run) -> r.writes) spec) in
              let factorial = List.fold_left ( * ) 1 (List.init n succ) in
              Alcotest.(check int) (name ^ " distinct orders") factorial (List.length orders);
              Alcotest.(check int) (name ^ " runs") factorial (List.length spec)
            end)
          (Lazy.force registry_instances));
    Alcotest.test_case "verify enumerates exactly the spec's runs on every registry entry" `Quick
      (fun () ->
        over_registry enumeration_mismatch;
        (* The verdicts compared cover both answers. *)
        let verdicts =
          List.map
            (fun (_, _, _, spec) -> List.for_all node_0_first spec)
            (Lazy.force registry_instances)
        in
        Alcotest.(check (list bool)) "verdicts" [ false; true ]
          (List.sort_uniq Bool.compare verdicts));
    Alcotest.test_case "canonical verify checks the spec's final boards" `Quick (fun () ->
        over_registry (fun ~spec protocol g ->
            if (Protocol.traits protocol).Protocol.Traits.confluent g then
              canonical_mismatch ~spec protocol g
            else None)) ]

(* ---- adversaries --------------------------------------------------------- *)

(* Every strategy picks, on the rank-based view, exactly what its list
   definition picks on the sorted list, PRNG draw for PRNG draw: the same
   seed gives the same schedule. *)
let adversary_tests =
  let gen =
    QCheck.Gen.(
      triple (int_range 1 150) (list_size (int_range 1 40) nat) (pair nat (int_range 0 20)))
  in
  let same (n, members, (seed, written)) =
    let members = List.sort_uniq compare (List.map (fun x -> x mod n) members) in
    let g = G.Gen.random_gnp (Prng.create seed) n 0.3 in
    let board = Board.create n in
    let authors = Array.init n Fun.id in
    Prng.shuffle (Prng.create seed) authors;
    Array.iteri
      (fun i a -> if i < written then Board.append board (Message.make ~author:a ~payload:[||]))
      authors;
    let view = Rankset.(view (of_list n members)) in
    let prio = Array.init n (fun v -> Mix.combine seed v mod 5) in
    let pairs =
      [ (Adversary.min_id, Spec_kernel.Adv.min_id);
        (Adversary.max_id, Spec_kernel.Adv.max_id);
        (Adversary.alternating_extremes, Spec_kernel.Adv.alternating);
        (Adversary.last_writer_neighbor_avoider g, Spec_kernel.Adv.avoider g);
        (Adversary.by_priority prio, Spec_kernel.Adv.by_priority prio) ]
    in
    List.for_all (fun (k, s) -> Adversary.choose k board view = s board members) pairs
    &&
    (* Random: a run of draws from twin generators. *)
    let kr = Adversary.random (Prng.create seed) and sr = Spec_kernel.Adv.random (Prng.create seed) in
    List.for_all (fun _ -> Adversary.choose kr board view = sr board members) (List.init 20 Fun.id)
  in
  [ QCheck_alcotest.to_alcotest ~speed_level:`Quick
      ~rand:(Random.State.make [| 1109 |])
      (QCheck.Test.make ~name:"rank-based picks equal the list definitions" ~count:500
         (QCheck.make gen) same) ]

(* ---- linearity ----------------------------------------------------------- *)

(* Minor words allocated per write by one untraced [Engine.run] of
   build-forest on a random tree.  The count is deterministic: the same
   code allocates the same words on every run. *)
let words_per_write n adv =
  let g = G.Gen.random_tree (Prng.create 1) n in
  let before = Gc.minor_words () in
  let run = Engine.run_packed Wb_protocols.Build_forest.protocol g (adv ()) in
  let words = Gc.minor_words () -. before in
  check "run succeeds" true (Engine.succeeded run);
  words /. float_of_int (Array.length run.Engine.writes)

let linearity_tests =
  [ Alcotest.test_case "forward path allocates O(1) words per write" `Quick (fun () ->
        (* Profiling off for the measurement, whatever the environment or
           an earlier test switched on. *)
        let prof = Wb_obs.Prof.is_enabled () in
        Wb_obs.Prof.disable ();
        Fun.protect
          ~finally:(fun () -> if prof then Wb_obs.Prof.enable ())
          (fun () ->
            List.iter
              (fun (name, adv) ->
                let small = words_per_write 250 adv and large = words_per_write 2000 adv in
                if large > 1.1 *. small || large > 400. then
                  Alcotest.failf "%s: %.0f words/write at n = 250, %.0f at n = 2000" name small large)
              [ ("min-id", fun () -> Adversary.min_id);
                ("random", fun () -> Adversary.random (Prng.create 1)) ])) ]

let suites =
  [ ("kernel.spec", spec_tests);
    ("kernel.enumeration", enumeration_tests);
    ("kernel.adversary", adversary_tests);
    ("kernel.linearity", linearity_tests) ]
