type t = {
  n : int;
  bits : Bitset.t;
  (* Fenwick tree over the elements, 1-based: [tree.(j)] counts the members
     in [\[j - lowbit j, j)]. *)
  tree : int array;
  top : int;  (* the largest power of two <= n, or 0 *)
  mutable count : int;
}

type view = t

let create n =
  if n < 0 then invalid_arg "Rankset.create";
  let rec top p = if p * 2 <= n then top (p * 2) else p in
  { n; bits = Bitset.create n; tree = Array.make (n + 1) 0; top = (if n = 0 then 0 else top 1); count = 0 }

let view s = s

let count s = s.count

let mem s i = i >= 0 && i < s.n && Bitset.mem s.bits i

let bump s i d =
  let j = ref (i + 1) in
  while !j <= s.n do
    s.tree.(!j) <- s.tree.(!j) + d;
    j := !j + (!j land - !j)
  done

let add s i =
  if not (Bitset.mem s.bits i) then begin
    Bitset.add s.bits i;
    s.count <- s.count + 1;
    bump s i 1
  end

let remove s i =
  if Bitset.mem s.bits i then begin
    Bitset.remove s.bits i;
    s.count <- s.count - 1;
    bump s i (-1)
  end

let of_list n l =
  let s = create n in
  List.iter (add s) l;
  s

let copy s = { s with bits = Bitset.copy s.bits; tree = Array.copy s.tree }

(* Fenwick descent: the largest prefix holding at most [k] members ends
   just before the member of rank [k]. *)
let nth s k =
  if k < 0 || k >= s.count then invalid_arg "Rankset.nth: rank out of range";
  let pos = ref 0 and rem = ref k and step = ref s.top in
  while !step > 0 do
    let next = !pos + !step in
    if next <= s.n && s.tree.(next) <= !rem then begin
      pos := next;
      rem := !rem - s.tree.(next)
    end;
    step := !step lsr 1
  done;
  !pos

let iter f s = if s.count > 0 then Bitset.iter f s.bits

let fold f s init = Bitset.fold f s.bits init

let to_list s = Bitset.to_list s.bits

let find_opt p s =
  let rec from k =
    if k >= s.count then None
    else
      let v = nth s k in
      if p v then Some v else from (k + 1)
  in
  from 0
