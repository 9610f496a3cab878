module Obs = Wb_obs

type outcome = Machine.outcome =
  | Success of Answer.t
  | Deadlock
  | Size_violation of { node : int; bits : int; bound : int }
  | Output_error of string

type stats = Machine.stats = { rounds : int; max_message_bits : int; total_bits : int }

type run = Machine.run = {
  outcome : outcome;
  writes : int array;
  stats : stats;
  activation_round : int array;
  write_round : int array;
  message_bits : int array;
  compose_count : int array;
  board : Board.t;
}

let default_max_rounds = Machine.default_max_rounds
let succeeded = Machine.succeeded
let answer = Machine.answer
let outcome_tag = Machine.outcome_tag
let outcome_equal = Machine.outcome_equal
let stats_equal = Machine.stats_equal

(* Registry entries are process-global and idempotent: every Engine.Make
   instantiation shares them.  The per-round engine.* metrics live with the
   kernel in {!Machine}; the per-driver ones are here. *)
let m_runs = Obs.Metrics.counter ~help:"completed Engine.run executions" "engine.runs"

let m_explore_execs =
  Obs.Metrics.counter
    ~help:"executions checked by verify (distinct final configurations when canonical)"
    "engine.explore_executions"

let () = Obs.Metrics.probe ~help:"total 64-bit PRNG draws" "prng.draws" Wb_support.Prng.total_draws

(* Canonical-exploration counters (ISSUE 9): cumulative across verify calls,
   surfaced by `wbctl explore --stats` and the explore bench. *)
let m_dedup_hits =
  Obs.Metrics.counter ~help:"schedule prefixes merged into an already-visited configuration"
    "explore.dedup_hits"

let m_orbit =
  Obs.Metrics.counter ~help:"candidate writes pruned to symmetry-orbit representatives"
    "explore.orbit_collapses"

let m_steals = Obs.Metrics.counter ~help:"exploration tasks stolen between workers" "explore.steals"

let m_states =
  Obs.Metrics.counter ~help:"distinct configurations claimed by the canonical explorer"
    "explore.states"

let m_table_used =
  Obs.Metrics.gauge ~help:"visited-table entries of the last verify" "explore.table_used"

(* Profiling sites (zero-cost unless Wb_obs.Prof is enabled), shared by
   every Engine.Make instantiation like the metrics above. *)
let prof_run = Obs.Prof.site "engine.run"
let prof_worker = Obs.Prof.site "explore.worker"

type verification = {
  valid : bool;
  states : int;
  finals : int;
  dedup_hits : int;
  orbit_collapses : int;
  steals : int;
  group_order : int;
  dedup : bool;
}

module Make (P : Protocol.S) = struct
  module N = struct
    let model = P.model
    let message_bound = P.message_bound

    type local = P.local

    let init = P.init
    let wants_to_activate ~round:_ view board local = P.wants_to_activate view board local

    let compose ~round:_ view board local =
      let writer, local = P.compose view board local in
      Some (Message.of_writer ~author:(View.id view) writer, local)

    let output = P.output
  end

  module M = Machine.Make (N)

  let run ?max_rounds ?trace g adv =
    let m = M.init ?max_rounds ?trace g in
    let rec loop () =
      match M.step m with
      | `Choices candidates ->
        M.pick m (Adversary.choose adv (M.board m) candidates);
        loop ()
      | `Write _ -> loop ()
      | `Done run -> run
    in
    let result = Obs.Prof.phase prof_run loop in
    Obs.Metrics.incr m_runs;
    result

  (* Exhaustive exploration on one parallel walker.  Under the protocol's
     declared {!Protocol.Traits} it walks {e configurations} rather than
     schedules: confluence lets two schedule prefixes reaching the same
     {!M.digest} merge, and the optional symmetry promise lets a sequential
     first phase prune candidate writes to stabilizer-orbit representatives
     (prefix lex-leader: at a prefix whose stabilizer subgroup is [H], a
     candidate [v] survives iff it is minimal in its [H]-orbit; the child
     prefix keeps the point stabilizer of [v]).  Once the stabilizer is
     trivial no further symmetry pruning is possible, so running phase 1
     sequentially loses nothing.  Without a confluence promise on [g] the
     same walker enumerates: there is no table, every configuration is new,
     every completed execution is a final and the limit counts executions.

     Determinism across [jobs]: a configuration is claimed in the shared
     {!Wb_support.Cset} at {e discovery}, before expansion, so the claimed
     set is exactly the reachability closure of the pruned schedule tree —
     independent of which worker expands what and of the deque spill
     heuristic.  Enumeration never stops early, so it walks the whole tree
     at any [jobs].  [states], [finals], [dedup_hits] and the verdict are
     therefore jobs-independent; [steals] alone is scheduling telemetry. *)
  let verify ?(limit = 250_000) ?(jobs = 1) ?shards g check =
    if jobs < 1 then invalid_arg "Engine.verify: jobs must be >= 1";
    (match shards with
    | Some a when Array.length a <> jobs ->
      invalid_arg "Engine.verify: shards array length must equal jobs"
    | _ -> ());
    let table =
      if P.traits.Protocol.Traits.confluent g then Some (Wb_support.Cset.create ~limit ())
      else None
    in
    let group =
      match (table, P.traits.Protocol.Traits.symmetry_fixed) with
      | Some _, Some fixed_of -> (
        match Wb_graph.Auto.automorphisms ~fixed:(fixed_of g) g with
        | Some a when Array.length a > 1 -> Some a
        | _ -> None)
      | _ -> None
    in
    let states = Atomic.make 0 in
    let finals = Atomic.make 0 in
    let hits = Atomic.make 0 in
    let collapses = ref 0 in
    let valid = Atomic.make true in
    let over = Atomic.make false in
    let claim m =
      match table with
      | None -> true
      | Some t -> (
        match Wb_support.Cset.add t (M.digest m) with
        | `Added -> true
        | `Present ->
          Atomic.incr hits;
          false
        | `Full ->
          Atomic.set over true;
          false)
    in
    (* Interior configurations are counted only in canonical mode. *)
    let claim_state m =
      match table with
      | None -> true
      | Some _ ->
        let fresh = claim m in
        if fresh then Atomic.incr states;
        fresh
    in
    (* Drive a machine from a choice resolution (or from init) to its next
       stable point; configurations are only digested there. *)
    let rec settle m =
      match M.step m with
      | `Write _ -> settle m
      | (`Choices _ | `Done _) as r -> r
    in
    (* Finals can only pass [limit] without a table: in canonical mode the
       table fills first. *)
    let complete_final m run =
      if claim m then
        if Atomic.fetch_and_add finals 1 >= limit then Atomic.set over true
        else begin
          Obs.Metrics.incr m_explore_execs;
          if not (check run) then Atomic.set valid false
        end
    in
    let m0 = M.init g in
    let seeds = ref [] in
    (* Phase 1 (sequential): expand while the stabilizer is nontrivial,
       pruning candidates to orbit minima.  Prefixes whose stabilizer has
       collapsed to the identity become seeds for the parallel phase. *)
    let rec grow_sym stab rev_path =
      match M.step m0 with
      | `Write _ -> assert false (* settled before entry *)
      | `Done _ -> assert false (* finals are claimed before recursing *)
      | `Choices candidates ->
        let candidates = Wb_support.Rankset.to_list candidates in
        let kept =
          List.filter
            (fun v ->
              Array.fold_left (fun acc p -> min acc p.(v)) v stab = v)
            candidates
        in
        collapses := !collapses + (List.length candidates - List.length kept);
        List.iter
          (fun v ->
            if not (Atomic.get over) then begin
              let saved = M.snapshot m0 in
              M.pick m0 v;
              (match settle m0 with
              | `Done run -> complete_final m0 run
              | `Choices _ ->
                if claim_state m0 then begin
                  let stab' = Array.of_list (List.filter (fun p -> p.(v) = v) (Array.to_list stab)) in
                  if Array.length stab' > 1 then grow_sym stab' (v :: rev_path)
                  else seeds := List.rev (v :: rev_path) :: !seeds
                end);
              M.restore m0 saved
            end)
          kept
    in
    (match settle m0 with
    | `Done run -> complete_final m0 run
    | `Choices _ ->
      if claim_state m0 then
        match group with
        | Some stab -> grow_sym stab []
        | None -> seeds := [ [] ]);
    let seed_list = List.rev !seeds in
    let steals_total = Atomic.make 0 in
    let failure = Atomic.make None in
    (* Phase 2 (parallel): depth-first from each seed.  Workers expand on
       their own machine, spilling a freshly claimed configuration to their
       deque whenever it is empty so idle workers can steal it.  Every
       spilled item costs a replay from the root, so the deque is kept to
       one item rather than filled. *)
    if (not (Atomic.get over)) && seed_list <> [] then begin
      let deques = Array.init jobs (fun _ -> Wb_support.Deque.create ()) in
      List.iteri (fun i prefix -> Wb_support.Deque.push deques.(i mod jobs) prefix) seed_list;
      let outstanding = Atomic.make (List.length seed_list) in
      let worker k =
        let dq = deques.(k) in
        let steals = ref 0 in
        (* Worker [k] streams into its own ring (single-writer, so the
           non-thread-safe Ring is fine): its machine's events, under one
           per-domain "worker" root span. *)
        let trace = Option.map (fun a -> Obs.Trace.Ring.sink a.(k)) shards in
        let wroot =
          Option.map
            (fun tr ->
              let minter = Obs.Span.minter ~seed:(k + 1) () in
              (tr, Obs.Span.start ~attrs:[ ("domain", string_of_int k) ] minter tr "worker"))
            trace
        in
        let m = M.init ?trace g in
        let root = M.snapshot m in
        let feed prefix =
          M.restore m root;
          let rec go picks =
            match (M.step m, picks) with
            | `Write _, _ -> go picks
            | `Choices _, v :: rest ->
              M.pick m v;
              go rest
            | `Choices _, [] -> ()
            | `Done _, _ -> assert false
          in
          go prefix
        in
        (* Expand the claimed configuration under the machine's current
           choice point.  Children are claimed at discovery; a claimed
           child is either recursed into or spilled for stealing. *)
        let rec expand rev_path =
          match M.step m with
          | `Write _ | `Done _ -> assert false
          | `Choices candidates ->
            List.iter
              (fun v ->
                if not (Atomic.get over) then begin
                  let saved = M.snapshot m in
                  M.pick m v;
                  (match settle m with
                  | `Done run -> complete_final m run
                  | `Choices _ ->
                    if claim_state m then
                      if jobs > 1 && Wb_support.Deque.size dq = 0 then begin
                        Atomic.incr outstanding;
                        Wb_support.Deque.push dq (List.rev (v :: rev_path))
                      end
                      else expand (v :: rev_path));
                  M.restore m saved
                end)
              (Wb_support.Rankset.to_list candidates)
        in
        let process prefix =
          feed prefix;
          expand (List.rev prefix)
        in
        let rec loop () =
          if not (Atomic.get over) then
            match Wb_support.Deque.pop dq with
            | Some prefix -> run_item prefix
            | None -> scan 1
        (* A raising [check] or protocol hook stops every worker; the caller
           re-raises the first exception once all have been joined. *)
        and run_item prefix =
          (match process prefix with
          | () -> ()
          | exception e ->
            ignore (Atomic.compare_and_set failure None (Some (e, Printexc.get_raw_backtrace ())));
            Atomic.set over true);
          Atomic.decr outstanding;
          loop ()
        and scan d =
          if d >= jobs then begin
            if Atomic.get outstanding > 0 && not (Atomic.get over) then begin
              Domain.cpu_relax ();
              scan 1
            end
          end
          else
            match Wb_support.Deque.steal deques.((k + d) mod jobs) with
            | Some prefix ->
              incr steals;
              run_item prefix
            | None -> scan (d + 1)
        in
        Obs.Prof.phase prof_worker loop;
        if !steals > 0 then Atomic.fetch_and_add steals_total !steals |> ignore;
        Option.iter (fun (tr, s) -> Obs.Span.finish tr s) wroot
      in
      let domains = List.init (jobs - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1))) in
      worker 0;
      List.iter Domain.join domains
    end;
    Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) (Atomic.get failure);
    let steals = Atomic.get steals_total in
    Obs.Metrics.add m_dedup_hits (Atomic.get hits);
    Obs.Metrics.add m_orbit !collapses;
    Obs.Metrics.add m_states (Atomic.get states);
    if steals > 0 then Obs.Metrics.add m_steals steals;
    Option.iter (fun t -> Obs.Metrics.set m_table_used (Wb_support.Cset.cardinal t)) table;
    if Atomic.get over then
      Error (`Limit (match table with Some t -> Wb_support.Cset.limit t | None -> limit))
    else
      Ok
        {
          valid = Atomic.get valid;
          states = Atomic.get states;
          finals = Atomic.get finals;
          dedup_hits = Atomic.get hits;
          orbit_collapses = !collapses;
          steals;
          group_order = (match group with Some a -> Array.length a | None -> 1);
          dedup = Option.is_some table;
        }
end

let run_packed ?max_rounds ?trace (module P : Protocol.S) g adv =
  let module E = Make (P) in
  E.run ?max_rounds ?trace g adv

let verify_packed ?limit ?jobs ?shards (module P : Protocol.S) g check =
  let module E = Make (P) in
  E.verify ?limit ?jobs ?shards g check
