module P = Wb_model
module W = Wb_support.Bitbuf.Writer
module R = Wb_support.Bitbuf.Reader

type variant = { with_d0 : bool; check_parity : bool }

let variant_equal a b = a.with_d0 = b.with_d0 && a.check_parity = b.check_parity

type entry =
  | Invalid of int
  | Node of { id : int; layer : int; parent : int; dm : int; d0 : int; dp : int }

let write_entry variant e =
  let w = W.create () in
  (match e with
  | Invalid id ->
    W.bit w true;
    Codec.write_id w id
  | Node { id; layer; parent; dm; d0; dp } ->
    W.bit w false;
    Codec.write_id w id;
    Codec.write_int w layer;
    Codec.write_int w parent;
    Codec.write_int w dm;
    if variant.with_d0 then Codec.write_int w d0;
    Codec.write_int w dp);
  w

let parse_message variant m =
  let r = P.Message.reader m in
  if R.bit r then Invalid (Codec.read_id r)
  else begin
    let id = Codec.read_id r in
    let layer = Codec.read_int r in
    let parent = Codec.read_int r in
    let dm = Codec.read_int r in
    let d0 = if variant.with_d0 then Codec.read_int r else 0 in
    let dp = Codec.read_int r in
    Node { id; layer; parent; dm; d0; dp }
  end

let message_bound variant ~n =
  let field = Codec.int_bits n in
  1 + Codec.id_bits n + (field * if variant.with_d0 then 5 else 4)

module Analysis = struct
  type layer_sums = { mutable sm : int; mutable s0 : int; mutable sp : int }

  (* Holds no reference to its board (see [Board.set_memo]). *)
  type t = {
    variant : variant;
    mutable parsed : int;  (** board positions parsed so far. *)
    mutable invalid_count : int;
    layer_by_id : int array;  (** by paper id; -1 unknown. *)
    written_by_index : bool array;
    mutable comp_sums : (int, layer_sums) Hashtbl.t;  (** current component. *)
    mutable last_normal : (int * int) option;
  }

  type P.Board.memo += Memo of t

  let fresh variant n =
    { variant;
      parsed = 0;
      invalid_count = 0;
      layer_by_id = Array.make (n + 1) (-1);
      written_by_index = Array.make n false;
      comp_sums = Hashtbl.create 8;
      last_normal = None }

  let sums_for t layer =
    match Hashtbl.find_opt t.comp_sums layer with
    | Some s -> s
    | None ->
      let s = { sm = 0; s0 = 0; sp = 0 } in
      Hashtbl.replace t.comp_sums layer s;
      s

  let absorb t = function
    | Invalid id ->
      t.invalid_count <- t.invalid_count + 1;
      t.written_by_index.(id - 1) <- true
    | Node { id; layer; parent; dm; d0; dp } ->
      if parent = 0 then t.comp_sums <- Hashtbl.create 8 (* new component starts *);
      t.written_by_index.(id - 1) <- true;
      t.layer_by_id.(id) <- layer;
      t.last_normal <- Some (id, layer);
      let s = sums_for t layer in
      s.sm <- s.sm + dm;
      s.s0 <- s.s0 + d0;
      s.sp <- s.sp + dp

  let catch_up t board =
    let len = P.Board.length board in
    for i = t.parsed to len - 1 do
      absorb t (parse_message t.variant (P.Board.get board i))
    done;
    t.parsed <- len

  let get variant board =
    let t =
      match P.Board.memo board with
      | Some (Memo t) when variant_equal t.variant variant -> t
      | Some _ | None ->
        let t = fresh variant (P.Board.n board) in
        P.Board.set_memo board (Memo t);
        t
    in
    catch_up t board;
    t

  let invalid_seen t = t.invalid_count > 0

  let layer_of t ~paper_id = if t.layer_by_id.(paper_id) < 0 then None else Some t.layer_by_id.(paper_id)

  let sums_view t layer =
    match Hashtbl.find_opt t.comp_sums layer with
    | Some s -> (s.sm, s.s0, s.sp)
    | None -> (0, 0, 0)

  let complete t k =
    k <= 0
    ||
    let sm, _, _ = sums_view t k in
    let _, prev_s0, prev_sp = sums_view t (k - 1) in
    sm = prev_sp - if t.variant.with_d0 then 2 * prev_s0 else 0

  let no_forward t k =
    let _, s0, sp = sums_view t k in
    sp - (if t.variant.with_d0 then 2 * s0 else 0) = 0

  let last_normal t = t.last_normal

  let min_unwritten t =
    let n = Array.length t.written_by_index in
    let rec go v = if v >= n then None else if t.written_by_index.(v) then go (v + 1) else Some v in
    go 0
end

let locally_invalid view =
  let my_parity = P.View.paper_id view mod 2 in
  P.View.fold_neighbors view (fun acc nb -> acc || (nb + 1) mod 2 = my_parity) false

(* Layers of the written neighbours of [view]; empty when none wrote. *)
let written_neighbor_layers analysis view =
  P.View.fold_neighbors view
    (fun acc nb ->
      match Analysis.layer_of analysis ~paper_id:(nb + 1) with
      | Some layer -> (nb + 1, layer) :: acc
      | None -> acc)
    []

let wants_to_activate variant view board =
  if variant.check_parity && locally_invalid view then true
  else begin
    let analysis = Analysis.get variant board in
    if variant.check_parity && Analysis.invalid_seen analysis then true
    else if P.Board.length board = 0 then P.View.id view = 0
    else begin
      match written_neighbor_layers analysis view with
      | [] -> begin
        (* Component-jump rule: the previous component is fully covered and
           this node is the smallest identifier left. *)
        match (Analysis.last_normal analysis, Analysis.min_unwritten analysis) with
        | Some (last_id, last_layer), Some candidate ->
          candidate = P.View.id view
          && (not (P.View.mem_neighbor view (last_id - 1)))
          && Analysis.complete analysis last_layer
          && Analysis.no_forward analysis last_layer
        | (Some _ | None), _ -> false
      end
      | layers ->
        let min_layer = List.fold_left (fun acc (_, l) -> min acc l) max_int layers in
        Analysis.complete analysis min_layer
    end
  end

let compose_entry variant view board =
  let analysis = Analysis.get variant board in
  if (variant.check_parity && locally_invalid view)
     || (variant.check_parity && Analysis.invalid_seen analysis)
  then Invalid (P.View.paper_id view)
  else begin
    match written_neighbor_layers analysis view with
    | [] ->
      Node { id = P.View.paper_id view; layer = 0; parent = 0; dm = 0; d0 = 0; dp = P.View.degree view }
    | layers ->
      let min_layer = List.fold_left (fun acc (_, l) -> min acc l) max_int layers in
      let my_layer = min_layer + 1 in
      let dm = List.length (List.filter (fun (_, l) -> l = my_layer - 1) layers) in
      let d0 = if variant.with_d0 then List.length (List.filter (fun (_, l) -> l = my_layer) layers) else 0 in
      let parent =
        List.fold_left (fun acc (id, l) -> if l = my_layer - 1 then min acc id else acc) max_int layers
      in
      Node { id = P.View.paper_id view; layer = my_layer; parent; dm; d0; dp = P.View.degree view - dm }
  end

let collect variant ~n board =
  let entries =
    List.map (parse_message variant) (P.Board.to_list board)
  in
  if List.exists (function Invalid _ -> true | Node _ -> false) entries then None
  else begin
    let parent = Array.make n min_int in
    List.iter
      (function
        | Invalid _ -> ()
        | Node { id; parent = p; _ } -> if id >= 1 && id <= n then parent.(id - 1) <- p - 1)
      entries;
    if Array.exists (fun p -> p = min_int) parent then None else Some parent
  end

let output_forest variant ~n board =
  match collect variant ~n board with
  | None -> P.Answer.Reject
  | Some parent -> P.Answer.Forest parent

let count_roots variant ~n board =
  match collect variant ~n board with
  | None -> None
  | Some parent -> Some (Array.fold_left (fun acc p -> if p = -1 then acc + 1 else acc) 0 parent)
