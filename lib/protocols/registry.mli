(** Catalogue of every protocol in the repository, with the problem each
    solves and the promise class it expects — what the CLI, the Table 2
    harness and the benches iterate over. *)

type promise =
  | Any_graph
  | Degeneracy_at_most of int
  | Split_degeneracy_at_most of int  (** Section 3's extended class. *)
  | Forest
  | Even_odd_bipartite
  | Bipartite
  | Regular_two_half  (** the 2-CLIQUES promise: (n/2 - 1)-regular, n even. *)

type entry = {
  key : string;
      (** stable CLI name; [Wb_bench.Cost.certificate] looks the entry's
          cost certificate up by it. *)
  protocol : Wb_model.Protocol.t;
  problem : int -> Wb_model.Problems.t;
      (** instance for an n-node system (SUBGRAPH_f depends on n). *)
  promise : promise;
  randomized : bool;
}

val all : unit -> entry list
val find : string -> entry option
val satisfies_promise : promise -> Wb_graph.Graph.t -> bool

val least_n : entry -> int
(** The smallest [n] for which {!sweep_graph} builds an instance: [k + 1]
    for a k-degenerate promise (the smallest k-tree), 2 for the 2-CLIQUES
    promise, 1 for forests, 0 otherwise. *)

val sweep_graph : entry -> seed:int -> n:int -> Wb_graph.Graph.t
(** A promise-satisfying [n]-node instance for cost sweeps, deterministic in
    [seed].  [Regular_two_half] entries get [2 * (n / 2)] nodes.
    @raise Invalid_argument if [n < least_n e]. *)
