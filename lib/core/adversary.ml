module Rs = Wb_support.Rankset

type t = { name : string; choose : Board.t -> Rs.view -> int }

let name a = a.name

let choose a board candidates =
  if Rs.count candidates = 0 then invalid_arg "Adversary.choose: no candidates";
  let pick = a.choose board candidates in
  if not (Rs.mem candidates pick) then invalid_arg "Adversary.choose: picked a non-candidate";
  pick

let first c = Rs.nth c 0

let last c = Rs.nth c (Rs.count c - 1)

let min_id = { name = "min-id"; choose = (fun _ c -> first c) }

let max_id = { name = "max-id"; choose = (fun _ c -> last c) }

let random rng =
  { name = "random"; choose = (fun _ c -> Rs.nth c (Wb_support.Prng.int rng (Rs.count c))) }

let by_priority prio =
  { name = "priority";
    choose = (fun _ c -> Rs.fold (fun v best -> if prio.(v) > prio.(best) then v else best) c (first c)) }

let last_writer_neighbor_avoider g =
  { name = "avoid-last-writer-neighbors";
    choose =
      (fun board c ->
        match Board.last board with
        | None -> first c
        | Some m ->
          let w = Message.author m in
          (match Rs.find_opt (fun v -> not (Wb_graph.Graph.mem_edge g w v)) c with
          | Some v -> v
          | None -> first c)) }

let alternating_extremes =
  { name = "alternating-extremes";
    choose = (fun board c -> if Board.length board mod 2 = 0 then first c else last c) }
