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
    ("kernel.adversary", adversary_tests);
    ("kernel.linearity", linearity_tests) ]
