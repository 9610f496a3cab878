module Dynarray = Wb_support.Dynarray

type memo = ..

type t = {
  size : int;
  messages : Message.t Dynarray.t;
  by_author : int array; (* -1 = absent *)
  mutable gen : int;
  mutable total : int; (* running sum of payload bits *)
  mutable memo : memo option;
}

let create size =
  if size < 0 then invalid_arg "Board.create";
  { size;
    messages = Dynarray.create ();
    by_author = Array.make size (-1);
    gen = 0;
    total = 0;
    memo = None }

let n b = b.size

let length b = Dynarray.length b.messages

let get b i = Dynarray.get b.messages i

let find_author b v =
  if v < 0 || v >= b.size then invalid_arg "Board.find_author";
  if b.by_author.(v) < 0 then None else Some (get b b.by_author.(v))

let has_author b v = Option.is_some (find_author b v)

let last b = if length b = 0 then None else Some (Dynarray.last b.messages)

let iter f b = Dynarray.iter f b.messages

let fold f init b = Dynarray.fold_left f init b.messages

let to_list b = Dynarray.to_list b.messages

let authors_in_order b = Array.map Message.author (Dynarray.to_array b.messages)

let append b m =
  let a = Message.author m in
  if a < 0 || a >= b.size then invalid_arg "Board.append: author out of range";
  if b.by_author.(a) >= 0 then invalid_arg "Board.append: author already wrote";
  b.by_author.(a) <- length b;
  b.total <- b.total + Message.size_bits m;
  Dynarray.push b.messages m

let snapshot_length = length

let truncate b len =
  b.gen <- b.gen + 1;
  b.memo <- None;
  while length b > len do
    let m = Dynarray.pop b.messages in
    b.by_author.(Message.author m) <- -1;
    b.total <- b.total - Message.size_bits m
  done

let generation b = b.gen

let memo b = b.memo

let set_memo b m = b.memo <- Some m

let equal a b =
  a.size = b.size
  && length a = length b
  && (let same = ref true in
      for i = 0 to length a - 1 do
        if not (Message.equal (get a i) (get b i)) then same := false
      done;
      !same)

let total_bits b = b.total

let max_message_bits b = fold (fun acc m -> max acc (Message.size_bits m)) 0 b

let pp ppf b =
  Format.fprintf ppf "@[<v>board (%d/%d):@," (length b) b.size;
  iter (fun m -> Format.fprintf ppf "  %a@," Message.pp m) b;
  Format.fprintf ppf "@]"
