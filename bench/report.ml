(* The shared bench report: every suite `wbctl bench` runs writes its
   machine-readable sidecar through this module, in one schema-versioned
   envelope —

     { schema: 2, bench, seed, params, rows }

   Every field is a function of the suite, its seed and its parameters, so
   two same-seed runs write byte-identical files.  Wall-clock timing lives
   in perfbench, not here.  Bumping the shape means bumping
   [schema_version]. *)

module J = Wb_obs.Json

let schema_version = 2

type t = {
  bench : string;
  seed : int;
  params : (string * J.t) list;
  mutable rows : J.t list;  (* newest first *)
}

(* [fast] is every suite's size switch, so it is always a parameter. *)
let create ?(params = []) ~bench ~seed ~fast () =
  { bench; seed; params = params @ [ ("fast", J.Bool fast) ]; rows = [] }

let add_row t ~name fields = t.rows <- J.Obj (("name", J.String name) :: fields) :: t.rows

let to_json t =
  J.Obj
    [ ("schema", J.Int schema_version);
      ("bench", J.String t.bench);
      ("seed", J.Int t.seed);
      ("params", J.Obj t.params);
      ("rows", J.List (List.rev t.rows)) ]

let default_out t = "BENCH_" ^ t.bench ^ ".json"

let write ?out t =
  let file = match out with Some f -> f | None -> default_out t in
  let oc = open_out file in
  J.to_channel oc (to_json t);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" file
