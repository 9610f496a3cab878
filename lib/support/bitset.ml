let word_bits = 63

type t = { n : int; words : int array }

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { n; words = Array.make ((n + word_bits - 1) / word_bits + 1) 0 }

let capacity s = s.n

let check s i op = if i < 0 || i >= s.n then invalid_arg ("Bitset." ^ op ^ ": out of range")

let mem s i =
  check s i "mem";
  s.words.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

let add s i =
  check s i "add";
  s.words.(i / word_bits) <- s.words.(i / word_bits) lor (1 lsl (i mod word_bits))

let remove s i =
  check s i "remove";
  s.words.(i / word_bits) <- s.words.(i / word_bits) land lnot (1 lsl (i mod word_bits))

let set s i b = if b then add s i else remove s i

let popcount w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words

let is_empty s = Array.for_all (fun w -> w = 0) s.words

let copy s = { n = s.n; words = Array.copy s.words }

let same_capacity a b op =
  if a.n <> b.n then invalid_arg ("Bitset." ^ op ^ ": capacity mismatch")

let equal a b =
  same_capacity a b "equal";
  a.words = b.words

let subset a b =
  same_capacity a b "subset";
  let ok = ref true in
  Array.iteri (fun i w -> if w land lnot b.words.(i) <> 0 then ok := false) a.words;
  !ok

let union_into dst src =
  same_capacity dst src "union_into";
  Array.iteri (fun i w -> dst.words.(i) <- dst.words.(i) lor w) src.words

let inter_into dst src =
  same_capacity dst src "inter_into";
  Array.iteri (fun i w -> dst.words.(i) <- dst.words.(i) land w) src.words

let diff_into dst src =
  same_capacity dst src "diff_into";
  Array.iteri (fun i w -> dst.words.(i) <- dst.words.(i) land lnot w) src.words

(* Index of the lowest set bit of a non-zero word, by binary search. *)
let ctz w =
  let w = ref w and r = ref 0 in
  if !w land 0xFFFFFFFF = 0 then begin r := 32; w := !w lsr 32 end;
  if !w land 0xFFFF = 0 then begin r := !r + 16; w := !w lsr 16 end;
  if !w land 0xFF = 0 then begin r := !r + 8; w := !w lsr 8 end;
  if !w land 0xF = 0 then begin r := !r + 4; w := !w lsr 4 end;
  if !w land 0x3 = 0 then begin r := !r + 2; w := !w lsr 2 end;
  if !w land 0x1 = 0 then r := !r + 1;
  !r

let iter f s =
  for wi = 0 to Array.length s.words - 1 do
    let w = ref s.words.(wi) in
    while !w <> 0 do
      f ((wi * word_bits) + ctz !w);
      w := !w land (!w - 1)
    done
  done

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let to_list s = List.rev (fold (fun i acc -> i :: acc) s [])

let of_list n l =
  let s = create n in
  List.iter (add s) l;
  s

let to_array s =
  let out = Array.make (cardinal s) 0 in
  let i = ref 0 in
  iter (fun v -> out.(!i) <- v; incr i) s;
  out

let pp ppf s =
  Format.fprintf ppf "{%a}" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") Format.pp_print_int) (to_list s)
