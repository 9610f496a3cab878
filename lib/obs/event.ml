type t =
  | Round_start of { round : int }
  | Activate of { node : int; round : int }
  | Compose of { node : int; round : int; bits : int }
  | Adversary_pick of { node : int; round : int; candidates : int list }
  | Write of { node : int; round : int; bits : int; board_bits : int }
  | Deadlock_detected of { round : int }
  | Run_end of { round : int; outcome : string }
  | Span_start of {
      trace : int;
      span : int;
      parent : int option;
      name : string;
      round : int;
      ts_us : int;
      attrs : (string * string) list;
    }
  | Span_stop of { span : int; round : int; ts_us : int }

let round = function
  | Round_start { round }
  | Activate { round; _ }
  | Compose { round; _ }
  | Adversary_pick { round; _ }
  | Write { round; _ }
  | Deadlock_detected { round }
  | Run_end { round; _ }
  | Span_start { round; _ }
  | Span_stop { round; _ } -> round

let to_json = function
  | Round_start { round } -> Json.Obj [ ("ev", Json.String "round_start"); ("round", Json.Int round) ]
  | Activate { node; round } ->
    Json.Obj [ ("ev", Json.String "activate"); ("node", Json.Int node); ("round", Json.Int round) ]
  | Compose { node; round; bits } ->
    Json.Obj
      [ ("ev", Json.String "compose");
        ("node", Json.Int node);
        ("round", Json.Int round);
        ("bits", Json.Int bits) ]
  | Adversary_pick { node; round; candidates } ->
    Json.Obj
      [ ("ev", Json.String "adversary_pick");
        ("node", Json.Int node);
        ("round", Json.Int round);
        ("candidates", Json.List (List.map (fun v -> Json.Int v) candidates)) ]
  | Write { node; round; bits; board_bits } ->
    Json.Obj
      [ ("ev", Json.String "write");
        ("node", Json.Int node);
        ("round", Json.Int round);
        ("bits", Json.Int bits);
        ("board_bits", Json.Int board_bits) ]
  | Deadlock_detected { round } ->
    Json.Obj [ ("ev", Json.String "deadlock"); ("round", Json.Int round) ]
  | Run_end { round; outcome } ->
    Json.Obj
      [ ("ev", Json.String "run_end"); ("round", Json.Int round); ("outcome", Json.String outcome) ]
  | Span_start { trace; span; parent; name; round; ts_us; attrs } ->
    Json.Obj
      ([ ("ev", Json.String "span_start");
         ("trace", Json.Int trace);
         ("span", Json.Int span) ]
      @ (match parent with None -> [] | Some p -> [ ("parent", Json.Int p) ])
      @ [ ("name", Json.String name); ("round", Json.Int round); ("ts_us", Json.Int ts_us) ]
      @
      if List.is_empty attrs then []
      else [ ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) attrs)) ])
  | Span_stop { span; round; ts_us } ->
    Json.Obj
      [ ("ev", Json.String "span_stop");
        ("span", Json.Int span);
        ("round", Json.Int round);
        ("ts_us", Json.Int ts_us) ]

let of_json j =
  let ( let* ) r f = Result.bind r f in
  let int key =
    match Json.member key j with
    | Some (Json.Int i) -> Ok i
    | _ -> Error (Printf.sprintf "Event.of_json: missing int %S" key)
  in
  let str key =
    match Json.member key j with
    | Some (Json.String s) -> Ok s
    | _ -> Error (Printf.sprintf "Event.of_json: missing string %S" key)
  in
  let* ev = str "ev" in
  match ev with
  | "round_start" ->
    let* round = int "round" in
    Ok (Round_start { round })
  | "activate" ->
    let* node = int "node" in
    let* round = int "round" in
    Ok (Activate { node; round })
  | "compose" ->
    let* node = int "node" in
    let* round = int "round" in
    let* bits = int "bits" in
    Ok (Compose { node; round; bits })
  | "adversary_pick" ->
    let* node = int "node" in
    let* round = int "round" in
    let* candidates =
      match Json.member "candidates" j with
      | Some (Json.List items) ->
        List.fold_right
          (fun item acc ->
            match (item, acc) with
            | Json.Int v, Ok vs -> Ok (v :: vs)
            | _, Error e -> Error e
            | _, Ok _ -> Error "Event.of_json: non-int candidate")
          items (Ok [])
      | _ -> Error "Event.of_json: missing candidates"
    in
    Ok (Adversary_pick { node; round; candidates })
  | "write" ->
    let* node = int "node" in
    let* round = int "round" in
    let* bits = int "bits" in
    let* board_bits = int "board_bits" in
    Ok (Write { node; round; bits; board_bits })
  | "deadlock" ->
    let* round = int "round" in
    Ok (Deadlock_detected { round })
  | "run_end" ->
    let* round = int "round" in
    let* outcome = str "outcome" in
    Ok (Run_end { round; outcome })
  | "span_start" ->
    let* trace = int "trace" in
    let* span = int "span" in
    let* parent =
      match Json.member "parent" j with
      | None -> Ok None
      | Some (Json.Int p) -> Ok (Some p)
      | Some _ -> Error "Event.of_json: non-int parent"
    in
    let* name = str "name" in
    let* round = int "round" in
    let* ts_us = int "ts_us" in
    let* attrs =
      match Json.member "attrs" j with
      | None -> Ok []
      | Some (Json.Obj fields) ->
        List.fold_right
          (fun (k, v) acc ->
            match (v, acc) with
            | Json.String s, Ok kvs -> Ok ((k, s) :: kvs)
            | _, Error e -> Error e
            | _, Ok _ -> Error "Event.of_json: non-string attr")
          fields (Ok [])
      | Some _ -> Error "Event.of_json: malformed attrs"
    in
    Ok (Span_start { trace; span; parent; name; round; ts_us; attrs })
  | "span_stop" ->
    let* span = int "span" in
    let* round = int "round" in
    let* ts_us = int "ts_us" in
    Ok (Span_stop { span; round; ts_us })
  | other -> Error (Printf.sprintf "Event.of_json: unknown tag %S" other)

let pp ppf e =
  match e with
  | Round_start { round } -> Format.fprintf ppf "round %d" round
  | Activate { node; round } -> Format.fprintf ppf "r%d: activate %d" round (node + 1)
  | Compose { node; round; bits } ->
    Format.fprintf ppf "r%d: compose %d (%d bits)" round (node + 1) bits
  | Adversary_pick { node; round; candidates } ->
    Format.fprintf ppf "r%d: adversary picks %d of {%s}" round (node + 1)
      (String.concat "," (List.map (fun v -> string_of_int (v + 1)) candidates))
  | Write { node; round; bits; board_bits } ->
    Format.fprintf ppf "r%d: write %d (%d bits, board %d)" round (node + 1) bits board_bits
  | Deadlock_detected { round } -> Format.fprintf ppf "r%d: deadlock" round
  | Run_end { round; outcome } -> Format.fprintf ppf "r%d: run end (%s)" round outcome
  | Span_start { span; parent; name; round; _ } ->
    Format.fprintf ppf "r%d: span %s start [%x%s]" round name span
      (match parent with None -> "" | Some p -> Printf.sprintf " < %x" p)
  | Span_stop { span; round; _ } -> Format.fprintf ppf "r%d: span stop [%x]" round span
