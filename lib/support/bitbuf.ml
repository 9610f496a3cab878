let width_of v =
  if v < 0 then invalid_arg "Bitbuf.width_of";
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go v 0

module Writer = struct
  type t = { mutable bits : Bytes.t; mutable len : int }

  let create () = { bits = Bytes.make 16 '\000'; len = 0 }

  let length_bits w = w.len

  let ensure w =
    if w.len >= 8 * Bytes.length w.bits then begin
      let bigger = Bytes.make (2 * Bytes.length w.bits) '\000' in
      Bytes.blit w.bits 0 bigger 0 (Bytes.length w.bits);
      w.bits <- bigger
    end

  let bit w b =
    ensure w;
    if b then begin
      let byte = Char.code (Bytes.get w.bits (w.len / 8)) in
      Bytes.set w.bits (w.len / 8) (Char.chr (byte lor (1 lsl (w.len mod 8))))
    end;
    w.len <- w.len + 1

  let fixed w ~width v =
    if width < 0 || width > 62 then invalid_arg "Bitbuf.fixed: width";
    if v < 0 || (width < 62 && v lsr width <> 0) then invalid_arg "Bitbuf.fixed: value out of range";
    for i = width - 1 downto 0 do
      bit w ((v lsr i) land 1 = 1)
    done

  let gamma w v =
    if v <= 0 then invalid_arg "Bitbuf.gamma: needs positive";
    let width = width_of v in
    for _ = 1 to width - 1 do bit w false done;
    fixed w ~width v

  let delta w v =
    if v <= 0 then invalid_arg "Bitbuf.delta: needs positive";
    let width = width_of v in
    gamma w width;
    (* The leading 1 of [v] is implied by the gamma-coded width. *)
    fixed w ~width:(width - 1) (v - (1 lsl (width - 1)))

  let nat w v =
    if v < 0 then invalid_arg "Bitbuf.nat: needs natural";
    delta w (v + 1)

  let contents w = Array.init w.len (fun i -> Char.code (Bytes.get w.bits (i / 8)) land (1 lsl (i mod 8)) <> 0)

  let blit w dst pos = Bytes.blit w.bits 0 dst pos ((w.len + 7) / 8)
end

module Reader = struct
  exception Underflow

  type source = Bools of bool array | Packed of { bytes : string; off : int }

  type t = { source : source; limit : int; mutable pos : int }

  let of_bits data = { source = Bools data; limit = Array.length data; pos = 0 }

  let of_packed bytes ~off ~bits =
    if off < 0 || bits < 0 || off + ((bits + 7) / 8) > String.length bytes then
      invalid_arg "Bitbuf.Reader.of_packed";
    { source = Packed { bytes; off }; limit = bits; pos = 0 }

  let remaining r = r.limit - r.pos

  let bit r =
    let i = r.pos in
    if i >= r.limit then raise Underflow;
    r.pos <- i + 1;
    match r.source with
    | Bools data -> data.(i)
    | Packed { bytes; off } -> Char.code bytes.[off + (i lsr 3)] land (1 lsl (i land 7)) <> 0

  let fixed r ~width =
    let v = ref 0 in
    for _ = 1 to width do
      v := (!v lsl 1) lor (if bit r then 1 else 0)
    done;
    !v

  let gamma r =
    let zeros = ref 0 in
    while not (bit r) do incr zeros done;
    let v = ref 1 in
    for _ = 1 to !zeros do
      v := (!v lsl 1) lor (if bit r then 1 else 0)
    done;
    !v

  let delta r =
    let width = gamma r in
    (1 lsl (width - 1)) lor fixed r ~width:(width - 1)

  let nat r = delta r - 1
end
