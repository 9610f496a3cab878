(* A specification of the shared-whiteboard round semantics (Becker et al.,
   "Allowing each node to communicate only once in a distributed system:
   shared whiteboard models", SPAA 2012, arXiv:1109.6534, Section 2), as a
   deliberately naive interpreter over lists.

   It is the oracle for the execution kernel [Machine.Make] and for the
   exhaustive checker [Engine.Make.verify]: it shares the node hooks
   ([Machine.NODE]) and the result record with the kernel and nothing
   else.  Every round recomputes what it needs from scratch — who is on the
   board, who is a candidate — by scanning lists, and the adversaries below
   take the candidates as a plain sorted list.  [all_runs] enumerates every
   schedule by replaying from the initial configuration, so it needs
   neither snapshots nor digests.

   The model, as the paper states it.  Each node is awake, active or
   terminated (plus dead here, for a node whose composition faulted).  In a
   round:
   - every active node whose message is already on the whiteboard becomes
     terminated;
   - the nodes active at this point are the round's write candidates: a
     node never activates and writes in the same round;
   - awake nodes may become active: all of them in the first round in the
     simultaneous models (SIMASYNC, SIMSYNC), by their own decision in the
     free models (ASYNC, SYNC).  In the asynchronous models (SIMASYNC,
     ASYNC) a node composes its message when it activates and the message
     is frozen;
   - in the synchronous models (SIMSYNC, SYNC) every candidate composes its
     message afresh from the current whiteboard;
   - the adversary picks one candidate, and its message is appended.

   The execution succeeds once every node's message is on the whiteboard.
   It deadlocks (the paper's corrupted final configuration) when a round
   has no candidate and activates no one, or when it runs past its round
   budget.  A message longer than the protocol's bound ends the execution
   with a size violation when it is about to be written. *)

open Wb_model
module G = Wb_graph

(* The paper's adversaries over the sorted candidate list. *)
module Adv = struct
  type t = Board.t -> int list -> int

  let min_id : t = fun _ c -> List.hd c

  let max_id : t = fun _ c -> List.nth c (List.length c - 1)

  let random rng : t = fun _ c -> List.nth c (Wb_support.Prng.int rng (List.length c))

  let by_priority prio : t =
   fun _ c -> List.fold_left (fun best v -> if prio.(v) > prio.(best) then v else best) (List.hd c) c

  let avoider g : t =
   fun board c ->
    match Board.last board with
    | None -> List.hd c
    | Some m -> (
      let w = Message.author m in
      match List.find_opt (fun v -> not (G.Graph.mem_edge g w v)) c with
      | Some v -> v
      | None -> List.hd c)

  let alternating : t =
   fun board c -> if Board.length board mod 2 = 0 then List.hd c else List.nth c (List.length c - 1)
end

(* A protocol as node hooks, adapted the way [Engine.Make] adapts it. *)
let node_of (module P : Protocol.S) : (module Machine.NODE) =
  (module struct
    let model = P.model

    let message_bound = P.message_bound

    type local = P.local

    let init = P.init

    let wants_to_activate ~round:_ view board local = P.wants_to_activate view board local

    let compose ~round:_ view board local =
      let writer, local = P.compose view board local in
      Some (Message.of_writer ~author:(View.id view) writer, local)

    let output = P.output
  end)

type state = Awake | Active | Terminated | Dead

module Make (N : Machine.NODE) = struct
  type node = {
    id : int;
    state : state;
    local : N.local;
    msg : Message.t option;
    activated_in : int;
    wrote_in : int;
    composed : int;
  }

  type config = { round : int; board : Message.t list; (* in write order *) nodes : node list }

  let simultaneous = match N.model with Model.Sim_async | Model.Sim_sync -> true | Model.Async | Model.Sync -> false

  let frozen = match N.model with Model.Sim_async | Model.Async -> true | Model.Sim_sync | Model.Sync -> false

  let run ?max_rounds g (adversary : Adv.t) : Machine.run =
    let n = G.Graph.n g in
    let bound = N.message_bound ~n in
    let max_rounds = match max_rounds with Some r -> r | None -> (2 * n) + 8 in
    let whiteboard msgs =
      let b = Board.create n in
      List.iter (Board.append b) msgs;
      b
    in
    let size m = Message.size_bits m in
    let finish cfg outcome : Machine.run =
      let node v = List.find (fun nd -> nd.id = v) cfg.nodes in
      let written v = List.find_opt (fun m -> Message.author m = v) cfg.board in
      { outcome;
        writes = Array.of_list (List.map Message.author cfg.board);
        stats =
          { rounds = cfg.round;
            max_message_bits = List.fold_left (fun acc m -> max acc (size m)) 0 cfg.board;
            total_bits = List.fold_left (fun acc m -> acc + size m) 0 cfg.board };
        activation_round = Array.init n (fun v -> (node v).activated_in);
        write_round = Array.init n (fun v -> (node v).wrote_in);
        message_bits = Array.init n (fun v -> match written v with Some m -> size m | None -> -1);
        compose_count = Array.init n (fun v -> (node v).composed);
        board = whiteboard cfg.board }
    in
    let compose cfg nd =
      match N.compose ~round:cfg.round (View.make g nd.id) (whiteboard cfg.board) nd.local with
      | None -> { nd with state = Dead }
      | Some (m, local) -> { nd with msg = Some m; local; composed = nd.composed + 1 }
    in
    let rec go cfg =
      if List.length cfg.board = n then
        finish cfg
          (match N.output ~n (whiteboard cfg.board) with
          | a -> Machine.Success a
          | exception e -> Machine.Output_error (Printexc.to_string e))
      else if cfg.round >= max_rounds then finish cfg Machine.Deadlock
      else
        let cfg = { cfg with round = cfg.round + 1 } in
        let on_board v = List.exists (fun m -> Message.author m = v) cfg.board in
        let nodes =
          List.map
            (fun nd -> if nd.state = Active && on_board nd.id then { nd with state = Terminated } else nd)
            cfg.nodes
        in
        let candidates = List.filter_map (fun nd -> if nd.state = Active then Some nd.id else None) nodes in
        let activates nd =
          nd.state = Awake
          && (if simultaneous then cfg.round = 1
              else N.wants_to_activate ~round:cfg.round (View.make g nd.id) (whiteboard cfg.board) nd.local)
        in
        let nodes =
          List.map
            (fun nd ->
              if activates nd then
                let nd = { nd with state = Active; activated_in = cfg.round } in
                if frozen then compose cfg nd else nd
              else nd)
            nodes
        in
        let activated = List.exists (fun nd -> nd.activated_in = cfg.round) nodes in
        let nodes =
          if frozen then nodes
          else
            List.map
              (fun nd -> if List.mem nd.id candidates && nd.state = Active then compose cfg nd else nd)
              nodes
        in
        let cfg = { cfg with nodes } in
        let candidates =
          List.filter (fun v -> List.exists (fun nd -> nd.id = v && nd.state = Active) nodes) candidates
        in
        match candidates with
        | [] -> if activated then go cfg else finish cfg Machine.Deadlock
        | _ -> (
          let v = adversary (whiteboard cfg.board) candidates in
          if not (List.mem v candidates) then invalid_arg "Spec_kernel: picked a non-candidate";
          let writer = List.find (fun nd -> nd.id = v) nodes in
          match writer.msg with
          | None -> invalid_arg "Spec_kernel: a candidate without a message"
          | Some m when size m > bound ->
            finish cfg (Machine.Size_violation { node = v; bits = size m; bound })
          | Some m ->
            go
              { cfg with
                board = cfg.board @ [ m ];
                nodes = List.map (fun nd -> if nd.id = v then { nd with wrote_in = cfg.round } else nd) nodes })
    in
    go
      { round = 0;
        board = [];
        nodes =
          List.init n (fun id ->
              { id;
                state = Awake;
                local = N.init (View.make g id);
                msg = None;
                activated_in = -1;
                wrote_in = -1;
                composed = 0 }) }

  (* Every schedule, each exactly once, in lexicographic order of its
     choices.  A run follows [prefix] (indices into the sorted candidate
     lists of its first choices), then takes the first candidate at every
     later choice and records how many candidates it had.  Each other
     index at each of those choices starts a new prefix. *)
  let all_runs ?max_rounds g =
    let runs = ref [] in
    let rec walk prefix =
      let rest = ref prefix and widths = ref [] (* of the later choices, deepest first *) in
      let follow : Adv.t =
       fun _ candidates ->
        match !rest with
        | i :: tl ->
          rest := tl;
          List.nth candidates i
        | [] ->
          widths := List.length candidates :: !widths;
          List.hd candidates
      in
      runs := run ?max_rounds g follow :: !runs;
      let later = List.length !widths in
      List.iteri
        (fun k width ->
          let zeros = List.init (later - 1 - k) (fun _ -> 0) in
          for i = 1 to width - 1 do
            walk (prefix @ zeros @ [ i ])
          done)
        !widths
    in
    walk [];
    List.rev !runs
end
