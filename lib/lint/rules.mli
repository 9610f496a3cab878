(** The rule catalog and the path policies the rules are parameterised by.

    Each rule enforces an invariant the rest of the codebase assumes rather
    than checks; the catalog entry records which one, so the CLI's [--rules]
    listing and docs/LINTING.md cannot drift apart silently. *)

type tier = Syntactic  (** Parsetree walk over source files. *)
          | Typed  (** Typedtree walk over [.cmt] files. *)
          | Project  (** whole-tree check, no AST. *)

type info = {
  id : string;
  tier : tier;
  summary : string;  (** the invariant the rule protects, one line. *)
}

val determinism : string
val poly_compare : string
val lock_discipline : string
val decode_hygiene : string
val interface_coverage : string

val domain_safety : string
(** Tier C: the whole-program static race check over Catalog/Escape/Locks. *)

val lint_allow : string
(** Meta-rule: malformed or unused [@wb.lint.allow] attributes. *)

val parse_error : string
(** Reported when a scanned file does not parse (should never fire on a
    tree that builds). *)

val catalog : info list

val is_typed : string -> bool
(** True for rules that only the typed tier can decide; used to avoid
    calling a suppression "unused" when no [.cmt] was available. *)

(** {1 Path policies} — all matching is on ['/']-separated components, so
    the same predicates hold for [lib/net/wire.ml] and for a test fixture
    at [test/lint/fixtures/lib/net/wire.ml]. *)

val components : string -> string list
(** ['/']-separated, with empty and ["."] segments dropped — the
    normalisation all the predicates (and the driver's path matching)
    share. *)

val determinism_exempt : string -> bool
(** [lib/obs] (timestamps in traces), [lib/net] (socket timeouts) and
    [lib/lint] (per-rule pass timing) may read clocks; nothing else.
    [bench/] is deliberately absent: its suites are deterministic tables,
    and wall-clock measurement lives in [perfbench/]. *)

val prof_exempt : string -> bool
(** Where [Wb_obs.Prof.phase] hooks may appear: the {!determinism_exempt}
    layers plus the execution kernel ([lib/core]).  A profiling hook
    anywhere else — [lib/protocols] in particular — is a wall-clock read
    smuggled into model code and is flagged under {!determinism}. *)

val lock_exempt : string -> bool
(** Only the [with_lock] combinator's own definition,
    [lib/support/sync.ml], may touch [Mutex.lock]/[Mutex.unlock] directly. *)

val is_decode_file : string -> bool
(** The two decode surfaces with a typed-error contract:
    [lib/net/wire.ml] and [lib/protocols/codec.ml]. *)

val is_decode_name : string -> bool
(** Top-level bindings named [decode*], [read*] or [get*] are decode-path
    functions inside a decode file. *)

val needs_interface : string -> bool
(** [.ml] files under a [lib] directory must have a matching [.mli]. *)
