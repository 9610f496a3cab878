module Traits = struct
  type t = {
    confluent : Wb_graph.Graph.t -> bool;
    symmetry_fixed : (Wb_graph.Graph.t -> int list) option;
  }

  let opaque = { confluent = (fun _ -> false); symmetry_fixed = None }

  let canonical ?symmetry_fixed () = { confluent = (fun _ -> true); symmetry_fixed }

  let canonical_when ?symmetry_fixed confluent = { confluent; symmetry_fixed }
end

module type S = sig
  val name : string
  val model : Model.t
  val message_bound : n:int -> int
  val traits : Traits.t

  type local

  val init : View.t -> local
  val wants_to_activate : View.t -> Board.t -> local -> bool
  val compose : View.t -> Board.t -> local -> Wb_support.Bitbuf.Writer.t * local
  val output : n:int -> Board.t -> Answer.t
end

type t = (module S)

let name (module P : S) = P.name

let model (module P : S) = P.model

let traits (module P : S) = P.traits

let opaque (module P : S) : t =
  (module struct
    include P

    let traits = Traits.opaque
  end)
