(* Domain-safe: every value cell is an [Atomic.t] (counters, gauges,
   histogram buckets and moments), and the name->metric table is guarded by
   a mutex, so parallel exploration workers ([Wb_model.Engine.verify])
   can instrument concurrently without corrupting the registry.  Histogram
   snapshots read one atomic at a time, so a dump taken mid-update may be
   momentarily inconsistent between [count] and [sum] — fine for telemetry,
   which is the only reader. *)

type counter = int Atomic.t
type gauge = int Atomic.t

(* 1 + 63 buckets: index 0 for the value 0, index w for bit width w. *)
type histogram = {
  buckets : int Atomic.t array;
  count : int Atomic.t;
  sum : int Atomic.t;
  min_v : int Atomic.t;
  max_v : int Atomic.t;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Probe of (unit -> int) ref
  | Histogram of histogram

let registry : (string, string * metric) Hashtbl.t = Hashtbl.create 64

let registry_lock = Mutex.create ()

let locked f = Wb_support.Sync.with_lock registry_lock f

let register name help make match_existing =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (_, existing) -> (
        match match_existing existing with
        | Some v -> v
        | None ->
          invalid_arg (Printf.sprintf "Metrics: %S already registered as another kind" name))
      | None ->
        let v, m = make () in
        Hashtbl.replace registry name (help, m);
        v)

let counter ?(help = "") name =
  register name help
    (fun () ->
      let c = Atomic.make 0 in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let incr c = Atomic.incr c

let add c n =
  if n < 0 then invalid_arg "Metrics.add: negative amount";
  ignore (Atomic.fetch_and_add c n)

let counter_value c = Atomic.get c

let gauge ?(help = "") name =
  register name help
    (fun () ->
      let g = Atomic.make 0 in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let set g v = Atomic.set g v
let gauge_value g = Atomic.get g

let probe ?(help = "") name thunk =
  ignore
    (register name help
       (fun () -> ((), Probe (ref thunk)))
       (function
         | Probe r ->
           r := thunk;
           Some ()
         | _ -> None))

let histogram ?(help = "") name =
  register name help
    (fun () ->
      let h =
        { buckets = Array.init 64 (fun _ -> Atomic.make 0);
          count = Atomic.make 0;
          sum = Atomic.make 0;
          min_v = Atomic.make max_int;
          max_v = Atomic.make min_int }
      in
      (h, Histogram h))
    (function Histogram h -> Some h | _ -> None)

let bucket_of v = Wb_support.Bitbuf.width_of v

(* Lock-free monotone update: retry the CAS until our candidate no longer
   improves on the published value. *)
let rec fold_extremum better cell v =
  let cur = Atomic.get cell in
  if better v cur && not (Atomic.compare_and_set cell cur v) then fold_extremum better cell v

let observe h v =
  let v = if v < 0 then 0 else v in
  Atomic.incr h.buckets.(bucket_of v);
  Atomic.incr h.count;
  ignore (Atomic.fetch_and_add h.sum v);
  fold_extremum ( < ) h.min_v v;
  fold_extremum ( > ) h.max_v v

let histogram_count h = Atomic.get h.count
let histogram_sum h = Atomic.get h.sum

(* Percentile estimate from the log buckets: walk cumulative counts to the
   bucket holding the rank and answer its inclusive upper bound (2^w - 1),
   clamped by the observed maximum.  Exact for bucket 0 (the value 0); at
   most one bit-width coarse elsewhere, which is all a telemetry histogram
   promises. *)
let percentile_opt h p =
  if not (p >= 0. && p <= 100.) then invalid_arg "Metrics.percentile: p outside [0,100]";
  let count = Atomic.get h.count in
  if count = 0 then None
  else begin
    let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int count))) in
    let max_v = Atomic.get h.max_v in
    let rec go w acc =
      if w >= 64 then max_v
      else
        let acc = acc + Atomic.get h.buckets.(w) in
        if acc >= rank then (if w = 0 then 0 else min max_v ((1 lsl w) - 1)) else go (w + 1) acc
    in
    Some (go 0 0)
  end

(* The 0-defaulting wrapper around [percentile_opt], kept for callers that
   feed arithmetic and cannot use an option; display code should use
   [percentile_opt] and render absence explicitly. *)
let percentile h p = match percentile_opt h p with None -> 0 | Some v -> v

let sorted () =
  locked (fun () ->
      List.sort
        (fun (a, _, _) (b, _, _) -> String.compare a b)
        (Hashtbl.fold (fun name (help, m) acc -> (name, help, m) :: acc) registry []))

let histogram_json h =
  let count = Atomic.get h.count in
  let buckets =
    List.filter_map
      (fun w ->
        let c = Atomic.get h.buckets.(w) in
        if c = 0 then None
        else
          (* upper bound (exclusive) of bucket w: 2^w, except bucket 0
             which holds only the value 0 (upper bound 1). *)
          Some (Json.List [ Json.Int (1 lsl w); Json.Int c ]))
      (List.init 64 Fun.id)
  in
  let pct p = match percentile_opt h p with None -> Json.Null | Some v -> Json.Int v in
  Json.Obj
    [ ("count", Json.Int count);
      ("sum", Json.Int (Atomic.get h.sum));
      ("min", if count = 0 then Json.Null else Json.Int (Atomic.get h.min_v));
      ("max", if count = 0 then Json.Null else Json.Int (Atomic.get h.max_v));
      ("p50", pct 50.);
      ("p95", pct 95.);
      ("p99", pct 99.);
      ("buckets", Json.List buckets) ]

let dump_json () =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun (name, _help, m) ->
      match m with
      | Counter c -> counters := (name, Json.Int (Atomic.get c)) :: !counters
      | Gauge g -> gauges := (name, Json.Int (Atomic.get g)) :: !gauges
      | Probe r -> gauges := (name, Json.Int (!r ())) :: !gauges
      | Histogram h -> histograms := (name, histogram_json h) :: !histograms)
    (sorted ());
  Json.Obj
    [ ("counters", Json.Obj (List.rev !counters));
      ("gauges", Json.Obj (List.rev !gauges));
      ("histograms", Json.Obj (List.rev !histograms)) ]

(* ---- OpenMetrics / Prometheus text exposition -------------------------- *)

module Openmetrics = struct
  (* Metric names must match [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted registry
     names ("engine.runs") are mapped onto that grammar by replacing every
     illegal character with '_' and prefixing a '_' when the first character
     is not a legal leader. *)
  let sanitize_name name =
    if String.length name = 0 then "_"
    else begin
      let ok_rest c =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
        || c = '_' || c = ':'
      in
      let b = Buffer.create (String.length name + 1) in
      let first = name.[0] in
      if first >= '0' && first <= '9' then Buffer.add_char b '_';
      String.iter (fun c -> Buffer.add_char b (if ok_rest c then c else '_')) name;
      Buffer.contents b
    end

  (* HELP text: backslash and newline are escaped; everything else (quotes
     included) is legal verbatim on a HELP line. *)
  let escape_help s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  (* Label values additionally escape the double quote that delimits them. *)
  let escape_label s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let num_str = function
    | Json.Int i -> Some (string_of_int i)
    | Json.Float f -> Some (Printf.sprintf "%.17g" f)
    | _ -> None

  (* Renders a {!dump_json} envelope.  Working from the JSON snapshot rather
     than the live registry keeps the renderer pure, so golden tests can
     feed synthetic envelopes without touching the process-global state.
     [help] maps the {e original} (pre-sanitization) metric name to its help
     string; [""] suppresses the HELP line. *)
  let of_json ?(help = fun _ -> "") j =
    let buf = Buffer.create 1024 in
    let out line = Buffer.add_string buf line in
    let meta name kind =
      let n = sanitize_name name in
      let h = help name in
      if not (String.equal h "") then out (Printf.sprintf "# HELP %s %s\n" n (escape_help h));
      out (Printf.sprintf "# TYPE %s %s\n" n kind);
      n
    in
    let section key =
      match Json.member key j with Some (Json.Obj kvs) -> kvs | _ -> []
    in
    List.iter
      (fun (name, v) ->
        match num_str v with
        | Some s ->
          let n = meta name "counter" in
          out (Printf.sprintf "%s_total %s\n" n s)
        | None -> ())
      (section "counters");
    List.iter
      (fun (name, v) ->
        match num_str v with
        | Some s ->
          let n = meta name "gauge" in
          out (Printf.sprintf "%s %s\n" n s)
        | None -> ())
      (section "gauges");
    List.iter
      (fun (name, hj) ->
        let n = meta name "histogram" in
        let int_member key =
          match Json.member key hj with Some (Json.Int i) -> Some i | _ -> None
        in
        let count = match int_member "count" with Some c -> c | None -> 0 in
        let sum = match int_member "sum" with Some s -> s | None -> 0 in
        let buckets =
          match Json.member "buckets" hj with Some (Json.List l) -> l | _ -> []
        in
        (* dump_json buckets carry exclusive integer upper bounds, so the
           inclusive [le] boundary is [upper - 1]; counts are per-bucket and
           become cumulative here, as the exposition format requires. *)
        let acc = ref 0 in
        List.iter
          (fun b ->
            match b with
            | Json.List [ Json.Int upper; Json.Int c ] ->
              acc := !acc + c;
              out (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" n (upper - 1) !acc)
            | _ -> ())
          buckets;
        out (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n count);
        out (Printf.sprintf "%s_sum %d\n" n sum);
        out (Printf.sprintf "%s_count %d\n" n count);
        let quantiles =
          List.filter_map
            (fun (q, key) ->
              match int_member key with Some v -> Some (q, v) | None -> None)
            [ ("0.5", "p50"); ("0.95", "p95"); ("0.99", "p99") ]
        in
        match quantiles with
        | [] -> ()
        | qs ->
          out (Printf.sprintf "# TYPE %s_quantile gauge\n" n);
          List.iter
            (fun (q, v) -> out (Printf.sprintf "%s_quantile{quantile=\"%s\"} %d\n" n q v))
            qs)
      (section "histograms");
    out "# EOF\n";
    Buffer.contents buf

  (* ---- validation ------------------------------------------------------ *)

  let is_name_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

  let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

  let valid_name ?(label = false) s =
    String.length s > 0
    && (if label then s.[0] <> ':' else true)
    && is_name_start s.[0]
    && (let ok = ref true in
        String.iter (fun c -> if not (is_name_char c) || (label && c = ':') then ok := false) s;
        !ok)

  let known_types =
    [ "counter"; "gauge"; "histogram"; "summary"; "unknown"; "info"; "stateset";
      "gaugehistogram" ]

  let valid_value s =
    match s with
    | "+Inf" | "-Inf" | "NaN" -> true
    | s -> ( match float_of_string_opt s with Some _ -> true | None -> false)

  (* One label pair [k="v"] starting at [i]; returns the index past it. *)
  let check_label line i =
    let len = String.length line in
    let j = ref i in
    while !j < len && is_name_char line.[!j] && line.[!j] <> ':' do j := !j + 1 done;
    if !j = i || not (valid_name ~label:true (String.sub line i (!j - i))) then None
    else if !j + 1 >= len || line.[!j] <> '=' || line.[!j + 1] <> '"' then None
    else begin
      let j = ref (!j + 2) in
      let bad = ref false in
      let closed = ref false in
      while (not !closed) && (not !bad) && !j < len do
        (match line.[!j] with
        | '\\' ->
          if !j + 1 >= len then bad := true
          else begin
            (match line.[!j + 1] with
            | '\\' | '"' | 'n' -> ()
            | _ -> bad := true);
            j := !j + 1
          end
        | '"' -> closed := true
        | _ -> ());
        j := !j + 1
      done;
      if !bad || not !closed then None else Some !j
    end

  let check_sample line =
    let len = String.length line in
    let i = ref 0 in
    while !i < len && is_name_char line.[!i] do i := !i + 1 done;
    if !i = 0 || not (valid_name (String.sub line 0 !i)) then Error "bad metric name"
    else begin
      let i =
        if !i < len && line.[!i] = '{' then begin
          let j = ref (!i + 1) in
          let bad = ref false in
          let stop = ref false in
          while (not !stop) && not !bad do
            if !j < len && line.[!j] = '}' then begin
              j := !j + 1;
              stop := true
            end
            else
              match check_label line !j with
              | None -> bad := true
              | Some k -> j := if k < len && line.[k] = ',' then k + 1 else k
          done;
          if !bad then -1 else !j
        end
        else !i
      in
      if i < 0 then Error "bad label set"
      else if i >= len || line.[i] <> ' ' then Error "missing value separator"
      else begin
        let rest = String.sub line (i + 1) (len - i - 1) in
        (* value [timestamp]: we only emit values, but tolerate a trailing
           timestamp field as the format allows. *)
        match String.split_on_char ' ' rest with
        | [ v ] -> if valid_value v then Ok () else Error "bad sample value"
        | [ v; ts ] ->
          if valid_value v && valid_value ts then Ok () else Error "bad sample value"
        | _ -> Error "bad sample line"
      end
    end

  let check_line line =
    match String.split_on_char ' ' line with
    | "#" :: "HELP" :: name :: _ :: _ ->
      if valid_name name then Ok () else Error "bad HELP name"
    | [ "#"; "TYPE"; name; kind ] ->
      if not (valid_name name) then Error "bad TYPE name"
      else if List.exists (String.equal kind) known_types then Ok ()
      else Error "unknown TYPE"
    | "#" :: _ -> Error "malformed comment line"
    | _ -> check_sample line

  let validate text =
    let lines = String.split_on_char '\n' text in
    (* to_channel-style output: every line newline-terminated, so the split
       ends with one empty trailer. *)
    let rec go n = function
      | [] -> Error "missing # EOF terminator"
      | [ "# EOF"; "" ] | [ "# EOF" ] -> Ok ()
      | "# EOF" :: _ -> Error (Printf.sprintf "line %d: content after # EOF" n)
      | line :: rest -> (
        match check_line line with
        | Ok () -> go (n + 1) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" n e))
    in
    go 1 lines
end

let dump_openmetrics () =
  let helps = Hashtbl.create 64 in
  List.iter (fun (name, help, _) -> Hashtbl.replace helps name help) (sorted ());
  let help name = match Hashtbl.find_opt helps name with Some h -> h | None -> "" in
  Openmetrics.of_json ~help (dump_json ())

let pp_table ppf () =
  Format.fprintf ppf "%-36s %-10s %s@." "metric" "kind" "value";
  List.iter
    (fun (name, help, m) ->
      let kind, value =
        match m with
        | Counter c -> ("counter", string_of_int (Atomic.get c))
        | Gauge g -> ("gauge", string_of_int (Atomic.get g))
        | Probe r -> ("probe", string_of_int (!r ()))
        | Histogram h ->
          ( "histogram",
            let count = Atomic.get h.count in
            if count = 0 then "empty"
            else
              let sum = Atomic.get h.sum in
              Printf.sprintf "count %d  sum %d  min %d  max %d  mean %.1f" count sum
                (Atomic.get h.min_v) (Atomic.get h.max_v)
                (float_of_int sum /. float_of_int count) )
      in
      Format.fprintf ppf "%-36s %-10s %s%s@." name kind value
        (if help = "" then "" else "   (" ^ help ^ ")"))
    (sorted ())

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ (_, m) ->
          match m with
          | Counter c -> Atomic.set c 0
          | Gauge g -> Atomic.set g 0
          | Probe _ -> ()
          | Histogram h ->
            Array.iter (fun b -> Atomic.set b 0) h.buckets;
            Atomic.set h.count 0;
            Atomic.set h.sum 0;
            Atomic.set h.min_v max_int;
            Atomic.set h.max_v min_int)
        registry)
