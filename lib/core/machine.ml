module Obs = Wb_obs
module G = Wb_graph.Graph
module Mix = Wb_support.Mix
module Rs = Wb_support.Rankset

type status = Awake | Active | Terminated | Dead

type outcome =
  | Success of Answer.t
  | Deadlock
  | Size_violation of { node : int; bits : int; bound : int }
  | Output_error of string

type stats = { rounds : int; max_message_bits : int; total_bits : int }

type run = {
  outcome : outcome;
  writes : int array;
  stats : stats;
  activation_round : int array;
  write_round : int array;
  message_bits : int array;
  compose_count : int array;
  board : Board.t;
}

let default_max_rounds n = (2 * n) + 8

let succeeded r = match r.outcome with Success _ -> true | Deadlock | Size_violation _ | Output_error _ -> false

let answer r = match r.outcome with Success a -> Some a | Deadlock | Size_violation _ | Output_error _ -> None

let outcome_tag = function
  | Success _ -> "success"
  | Deadlock -> "deadlock"
  | Size_violation _ -> "size_violation"
  | Output_error _ -> "output_error"

let outcome_equal a b =
  match (a, b) with
  | Success x, Success y -> Answer.equal x y
  | Deadlock, Deadlock -> true
  | Size_violation x, Size_violation y ->
    x.node = y.node && x.bits = y.bits && x.bound = y.bound
  | Output_error x, Output_error y -> String.equal x y
  | (Success _ | Deadlock | Size_violation _ | Output_error _), _ -> false

let stats_equal a b =
  a.rounds = b.rounds
  && a.max_message_bits = b.max_message_bits
  && a.total_bits = b.total_bits

(* Registry entries are process-global and idempotent: every Machine.Make
   instantiation shares them.  All values are atomic (Wb_obs.Metrics), so
   parallel exploration workers instrument safely. *)
let m_rounds = Obs.Metrics.counter ~help:"rounds across all executions" "engine.rounds"
let m_writes = Obs.Metrics.counter ~help:"messages appended to boards" "engine.writes"

let m_composes =
  Obs.Metrics.counter ~help:"message compositions incl. synchronous recompositions"
    "engine.recompositions"

let m_compose_per_node =
  Obs.Metrics.histogram ~help:"compositions per node per execution" "engine.compose_per_node"

let m_candidates =
  Obs.Metrics.histogram ~help:"write-candidate set size per round" "engine.candidates_per_round"

let m_board_bits = Obs.Metrics.gauge ~help:"board total bits after last write" "engine.board_bits"

let m_message_bits =
  Obs.Metrics.histogram ~help:"bits per message appended to a board" "engine.message_bits"

let m_deadlocks = Obs.Metrics.counter ~help:"executions ending in deadlock" "engine.deadlocks"

(* Profiling sites for the kernel hot paths; zero-cost unless Wb_obs.Prof
   is enabled (see prof.mli). *)
let prof_step = Obs.Prof.site "machine.step"
let prof_pick = Obs.Prof.site "machine.pick"
let prof_round = Obs.Prof.site "machine.round"

module type NODE = sig
  val model : Model.t
  val message_bound : n:int -> int

  type local

  val init : View.t -> local
  val wants_to_activate : round:int -> View.t -> Board.t -> local -> bool
  val compose : round:int -> View.t -> Board.t -> local -> (Message.t * local) option
  val output : n:int -> Board.t -> Answer.t
end

module Make (N : NODE) = struct
  (* What the machine is waiting for between [step]s. *)
  type pending =
    | Idle  (** advance through rounds on the next [step]. *)
    | Waiting  (** a scheduling choice over [live] is open. *)
    | Chosen of int  (** [pick]ed; validate and append on the next [step]. *)

  type t = {
    size : int;
    bound : int;
    max_rounds : int;
    views : View.t array;
    board : Board.t;
    trace : Obs.Trace.t option;
    mutable status : status array;
    mutable locals : N.local array;
    mutable memory : Message.t option array;
    mutable activation_round : int array;
    mutable write_round : int array;
    mutable compose_count : int array;
    mutable round : int;
    mutable pending : pending;
    mutable finished : run option;
    (* The write candidates: live nodes activated before the current round
       that have not written.  A node activated in round r waits in [fresh]
       and joins at round r + 1; a write or a [kill] removes it. *)
    mutable live : Rs.t;
    mutable awake : Rs.t;  (* exactly the nodes whose status is [Awake] *)
    mutable fresh : int list;
    mutable last_writer : int;  (* -1 when the previous round wrote nothing *)
    mutable activated : bool;  (* someone activated in the current round *)
    (* Canonical-digest lanes (see [digest]): two independent Zobrist
       accumulators XOR-folding per-component contributions, maintained
       incrementally at every status, memory and board mutation.  [mem_h]
       caches each node's current memory contribution (0 = no message) so
       synchronous recomposition can XOR the old one out in O(1) and a board
       append reuses the hash of the message it publishes. *)
    mutable z0 : int;
    mutable z1 : int;
    mutable mem_h : int array;
  }

  let frozen = Model.frozen_at_activation N.model

  let simultaneous = Model.simultaneous N.model

  let init ?max_rounds ?trace g =
    let size = G.n g in
    let views = Array.init size (View.make g) in
    { size;
      bound = N.message_bound ~n:size;
      max_rounds = (match max_rounds with Some r -> r | None -> default_max_rounds size);
      views;
      board = Board.create size;
      trace;
      status = Array.make size Awake;
      locals = Array.map N.init views;
      memory = Array.make size None;
      activation_round = Array.make size (-1);
      write_round = Array.make size (-1);
      compose_count = Array.make size 0;
      round = 0;
      pending = Idle;
      finished = None;
      live = Rs.create size;
      awake = Rs.of_list size (List.init size Fun.id);
      fresh = [];
      last_writer = -1;
      activated = false;
      z0 = 0;
      z1 = 0;
      mem_h = Array.make size 0 }

  let board t = t.board

  let round t = t.round

  (* Each contribution is stamped into both lanes (under different keys) by
     XOR, so lanes are insensitive to the order contributions arrive in —
     the board lane in particular identifies the board by its multiset of
     messages, which is what makes the digest canonical across schedule
     prefixes (docs/EXPLORATION.md).  Stamping the same value twice cancels:
     status changes and recompositions XOR the old contribution out. *)
  let stamp t c =
    t.z0 <- t.z0 lxor Mix.mix c;
    t.z1 <- t.z1 lxor Mix.mix (c lxor 0x2c1b3c6da4be98f1)

  let status_code = function Awake -> 0 | Active -> 1 | Terminated -> 2 | Dead -> 3

  let c_status v st = Mix.combine 0x51 ((v lsl 2) lor status_code st)

  let set_status t v st =
    let old = t.status.(v) in
    if old <> st then begin
      stamp t (c_status v old);
      stamp t (c_status v st);
      t.status.(v) <- st
    end

  let digest t =
    let acc = Mix.combine (Mix.combine t.z0 t.z1) t.round in
    match t.pending with
    | Waiting -> Rs.fold (fun v a -> Mix.combine a (v + 2)) (Rs.view t.live) (Mix.combine acc 1)
    | Idle | Chosen _ -> Mix.combine acc 0

  let kill t v =
    if t.status.(v) <> Dead then begin
      set_status t v Dead;
      Rs.remove t.live v;
      Rs.remove t.awake v;
      (* A killed pick never writes: the choice reopens without it. *)
      (match t.pending with
      | Chosen w when w = v -> t.pending <- Waiting
      | Idle | Waiting | Chosen _ -> ())
    end

  let compose_now t v =
    match N.compose ~round:t.round t.views.(v) t.board t.locals.(v) with
    | None -> kill t v
    | Some (m, local) ->
      t.locals.(v) <- local;
      (match t.mem_h.(v) with 0 -> () | h -> stamp t h);
      let h = Mix.combine 0x4d (Mix.combine (Mix.bools ~seed:17 (Message.payload m)) v) in
      t.mem_h.(v) <- h;
      stamp t h;
      t.memory.(v) <- Some m;
      t.compose_count.(v) <- t.compose_count.(v) + 1;
      Obs.Metrics.incr m_composes;
      match t.trace with
      | None -> ()
      | Some tr ->
        Obs.Trace.emit tr (Obs.Event.Compose { node = v; round = t.round; bits = Message.size_bits m })

  (* Visited for every member of [awake] at the start of the loop; a hook
     may kill a node meanwhile, including the one it answers for (a faulted
     query), and a dead node never activates, however it answered. *)
  let activate t v =
    if t.status.(v) = Awake
       && (if simultaneous then t.round = 1
           else N.wants_to_activate ~round:t.round t.views.(v) t.board t.locals.(v))
       && t.status.(v) = Awake
    then begin
      set_status t v Active;
      Rs.remove t.awake v;
      t.fresh <- v :: t.fresh;
      t.activation_round.(v) <- t.round;
      t.activated <- true;
      (match t.trace with
      | None -> ()
      | Some tr -> Obs.Trace.emit tr (Obs.Event.Activate { node = v; round = t.round }));
      if frozen then compose_now t v
    end

  let recompose t v = if t.status.(v) = Active then compose_now t v

  (* One deterministic round prefix: the previous round's writer
     terminates (one node writes per round, so no other node can), last
     round's activations join the candidates, awake nodes activate, and
     synchronous models recompose every candidate.  Afterwards [live] holds
     exactly the candidates that hold a message, and [activated] says
     whether anyone activated. *)
  let round_prefix t =
    Obs.Prof.phase prof_round (fun () ->
    t.round <- t.round + 1;
    (match t.trace with
    | None -> ()
    | Some tr -> Obs.Trace.emit tr (Obs.Event.Round_start { round = t.round }));
    (match t.last_writer with
    | -1 -> ()
    | w ->
      if t.status.(w) = Active then set_status t w Terminated;
      t.last_writer <- -1);
    List.iter (fun v -> if t.status.(v) = Active then Rs.add t.live v) t.fresh;
    t.fresh <- [];
    Obs.Metrics.observe m_candidates (Rs.count (Rs.view t.live));
    t.activated <- false;
    Rs.iter (activate t) (Rs.view t.awake);
    if not frozen then Rs.iter (recompose t) (Rs.view t.live))

  let do_write t v =
    match t.memory.(v) with
    | None -> assert false
    | Some m ->
      Board.append t.board m;
      Rs.remove t.live v;
      t.last_writer <- v;
      stamp t (Mix.combine 0x42 t.mem_h.(v));
      t.write_round.(v) <- t.round;
      let bits = Message.size_bits m and board_bits = Board.total_bits t.board in
      Obs.Metrics.incr m_writes;
      Obs.Metrics.set m_board_bits board_bits;
      Obs.Metrics.observe m_message_bits bits;
      match t.trace with
      | None -> ()
      | Some tr ->
        Obs.Trace.emit tr (Obs.Event.Write { node = v; round = t.round; bits; board_bits })

  let finish t outcome =
    let message_bits = Array.make t.size (-1) in
    Board.iter (fun m -> message_bits.(Message.author m) <- Message.size_bits m) t.board;
    Obs.Metrics.add m_rounds t.round;
    Array.iter (Obs.Metrics.observe m_compose_per_node) t.compose_count;
    (match outcome with Deadlock -> Obs.Metrics.incr m_deadlocks | _ -> ());
    (match (t.trace, outcome) with
    | Some tr, Deadlock -> Obs.Trace.emit tr (Obs.Event.Deadlock_detected { round = t.round })
    | _ -> ());
    (match t.trace with
    | None -> ()
    | Some tr -> Obs.Trace.emit tr (Obs.Event.Run_end { round = t.round; outcome = outcome_tag outcome }));
    let run =
      { outcome;
        writes = Board.authors_in_order t.board;
        stats =
          { rounds = t.round;
            max_message_bits = Board.max_message_bits t.board;
            total_bits = Board.total_bits t.board };
        activation_round = Array.copy t.activation_round;
        write_round = Array.copy t.write_round;
        message_bits;
        compose_count = Array.copy t.compose_count;
        board = t.board }
    in
    t.pending <- Idle;
    t.finished <- Some run;
    run

  let success_outcome t =
    match N.output ~n:t.size t.board with
    | answer -> Success answer
    | exception e -> Output_error (Printexc.to_string e)

  let check_size t v =
    match t.memory.(v) with
    | None -> None
    | Some m ->
      let bits = Message.size_bits m in
      if bits > t.bound then Some (Size_violation { node = v; bits; bound = t.bound }) else None

  (* The round's choice is open over [live]; with no candidate left the
     round ends without a write, and a round that also activated no one
     deadlocks. *)
  let rec open_choice t =
    if Rs.count (Rs.view t.live) > 0 then begin
      t.pending <- Waiting;
      `Choices (Rs.view t.live)
    end
    else begin
      t.pending <- Idle;
      if t.activated then advance t else `Done (finish t Deadlock)
    end

  and advance t =
    if Board.length t.board = t.size then `Done (finish t (success_outcome t))
    else if t.round >= t.max_rounds then `Done (finish t Deadlock)
    else begin
      round_prefix t;
      open_choice t
    end

  let step t =
    Obs.Prof.phase prof_step (fun () ->
    match t.finished with
    | Some run -> `Done run
    | None -> (
      match t.pending with
      | Waiting -> open_choice t
      | Chosen v -> (
        t.pending <- Idle;
        match check_size t v with
        | Some violation -> `Done (finish t violation)
        | None ->
          do_write t v;
          `Write v)
      | Idle -> advance t))

  let pick t v =
    Obs.Prof.phase prof_pick (fun () ->
    match t.pending with
    | Waiting when Rs.mem (Rs.view t.live) v ->
      (match t.trace with
      | None -> ()
      | Some tr ->
        Obs.Trace.emit tr
          (Obs.Event.Adversary_pick
             { node = v; round = t.round; candidates = Rs.to_list (Rs.view t.live) }));
      t.pending <- Chosen v
    | Waiting -> invalid_arg "Machine.pick: not a candidate"
    | Idle | Chosen _ -> invalid_arg "Machine.pick: no scheduling choice is open")

  type snapshot = {
    s_status : status array;
    s_locals : N.local array;
    s_memory : Message.t option array;
    s_activation : int array;
    s_write : int array;
    s_compose : int array;
    s_round : int;
    s_board_len : int;
    s_pending : pending;
    s_live : Rs.t;
    s_awake : Rs.t;
    s_fresh : int list;
    s_last_writer : int;
    s_activated : bool;
    s_z0 : int;
    s_z1 : int;
    s_mem_h : int array;
  }

  let snapshot t =
    { s_status = Array.copy t.status;
      s_locals = Array.copy t.locals;
      s_memory = Array.copy t.memory;
      s_activation = Array.copy t.activation_round;
      s_write = Array.copy t.write_round;
      s_compose = Array.copy t.compose_count;
      s_round = t.round;
      s_board_len = Board.snapshot_length t.board;
      s_pending = t.pending;
      s_live = Rs.copy t.live;
      s_awake = Rs.copy t.awake;
      s_fresh = t.fresh;
      s_last_writer = t.last_writer;
      s_activated = t.activated;
      s_z0 = t.z0;
      s_z1 = t.z1;
      s_mem_h = Array.copy t.mem_h }

  let restore t s =
    t.status <- Array.copy s.s_status;
    t.locals <- Array.copy s.s_locals;
    t.memory <- Array.copy s.s_memory;
    t.activation_round <- Array.copy s.s_activation;
    t.write_round <- Array.copy s.s_write;
    t.compose_count <- Array.copy s.s_compose;
    t.round <- s.s_round;
    Board.truncate t.board s.s_board_len;
    t.pending <- s.s_pending;
    t.live <- Rs.copy s.s_live;
    t.awake <- Rs.copy s.s_awake;
    t.fresh <- s.s_fresh;
    t.last_writer <- s.s_last_writer;
    t.activated <- s.s_activated;
    t.z0 <- s.s_z0;
    t.z1 <- s.s_z1;
    t.mem_h <- Array.copy s.s_mem_h;
    t.finished <- None
end
