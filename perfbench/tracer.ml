(* Outside-in span recorder for the traced benchmark run.

   Every span is opened and closed by the benchmark's own wrappers around
   calls into a layer's public functions; nothing inside the libraries is
   instrumented.  Spans nest strictly (a stack), so a span's children never
   overlap and its self time is its duration minus its children's.  Calls
   at a hot boundary are not kept one by one: each layer folds into one
   aggregate per op (call count, total and self time, total and self minor
   words), which keeps the recorder's memory constant. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

type layer =
  | Op  (** the whole operation; its self time is the kernel's. *)
  | Init
  | Activate
  | Compose
  | Output
  | Conn  (** one send or receive on a node connection. *)

let index = function
  | Op -> 0
  | Init -> 1
  | Activate -> 2
  | Compose -> 3
  | Output -> 4
  | Conn -> 5

let n_layers = 6

type agg = {
  calls : int array;
  total_ns : int array;
  self_ns : int array;
  total_words : int array;
  self_words : int array;
}

let fresh_agg () =
  { calls = Array.make n_layers 0;
    total_ns = Array.make n_layers 0;
    self_ns = Array.make n_layers 0;
    total_words = Array.make n_layers 0;
    self_words = Array.make n_layers 0 }

let max_depth = 16

(* The open-span stack; [depth] spans are open. *)
let stack_layer = Array.make max_depth 0
let stack_start = Array.make max_depth 0
let stack_child = Array.make max_depth 0
let stack_words = Array.make max_depth 0
let stack_child_words = Array.make max_depth 0
let depth = ref 0

(* Set whenever a span's children outlast the span itself; the layer-sum
   check reads it. *)
let overlap = ref false

(* The aggregate of the op in progress. *)
let current = ref (fresh_agg ())

let words () = int_of_float (Gc.minor_words ())

let enter layer =
  let d = !depth in
  if d >= max_depth then failwith "Tracer.enter: spans nested too deep";
  stack_layer.(d) <- index layer;
  stack_child.(d) <- 0;
  stack_child_words.(d) <- 0;
  stack_words.(d) <- words ();
  depth := d + 1;
  stack_start.(d) <- now_ns ()

let leave () =
  let t = now_ns () in
  let d = !depth - 1 in
  if d < 0 then failwith "Tracer.leave: no open span";
  depth := d;
  let dur = t - stack_start.(d) in
  let w = words () - stack_words.(d) in
  let l = stack_layer.(d) in
  let a = !current in
  if stack_child.(d) > dur then overlap := true;
  a.calls.(l) <- a.calls.(l) + 1;
  a.total_ns.(l) <- a.total_ns.(l) + dur;
  a.self_ns.(l) <- a.self_ns.(l) + dur - stack_child.(d);
  a.total_words.(l) <- a.total_words.(l) + w;
  a.self_words.(l) <- a.self_words.(l) + w - stack_child_words.(d);
  if d > 0 then begin
    stack_child.(d - 1) <- stack_child.(d - 1) + dur;
    stack_child_words.(d - 1) <- stack_child_words.(d - 1) + w
  end

(* [span layer f] runs [f ()] inside a span, closing it on exceptions too. *)
let span layer f =
  enter layer;
  match f () with
  | r ->
    leave ();
    r
  | exception e ->
    leave ();
    raise e

(* Run one op as the root span; returns its result, its aggregate and
   whether every span's children fitted inside it. *)
let op f =
  let a = fresh_agg () in
  current := a;
  overlap := false;
  let r = span Op f in
  if !depth <> 0 then failwith "Tracer.op: unbalanced spans";
  (r, a, not !overlap)

let add_agg into a =
  let add dst src = Array.iteri (fun l v -> dst.(l) <- dst.(l) + v) src in
  add into.calls a.calls;
  add into.total_ns a.total_ns;
  add into.self_ns a.self_ns;
  add into.total_words a.total_words;
  add into.self_words a.self_words

let calls a l = a.calls.(index l)
let total_ns a l = a.total_ns.(index l)
let self_ns a l = a.self_ns.(index l)
let total_words a l = a.total_words.(index l)
let self_words a l = a.self_words.(index l)

(* Layer self times summed: equals the root span's duration exactly when
   spans nest without overlap. *)
let self_sum_ns a = Array.fold_left ( + ) 0 a.self_ns
