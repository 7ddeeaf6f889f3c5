(** A small deterministic CDCL SAT solver.

    Conflict-driven clause learning in its plainest form: clauses live
    in one flat int arena, two watched literals per clause drive unit
    propagation, and each conflict learns its first-UIP clause.
    Decisions take the unassigned variable of highest activity (bumped
    for every variable a conflict analysis touches, decayed after every
    conflict), the lowest-numbered among equals, at its saved phase;
    every variable starts at activity 0 and phase false.  There are no
    restarts, no clause deletion, no randomness and no clock, so the
    verdict and the work spent on it depend only on the clauses and the
    order in which they were added.

    Variables are numbered from 1 as {!new_var} hands them out, and a
    literal is a variable ([v]) or its negation ([-v]), as in DIMACS. *)

type t

type result =
  | Unsat  (** No assignment satisfies every clause. *)
  | Sat of bool array
      (** A satisfying assignment: entry [v] is variable [v]'s value,
          entry 0 is unused and [false]. *)
  | Budget_out
      (** The search met its conflict budget, or the cancel token
          fired, before a verdict. *)

val create : unit -> t

val clear : t -> unit
(** Empty the solver for another formula: no variable, no clause, no
    conflict, and {!add_clause} and {!solve} allowed again.  The clause
    arena, the per-variable arrays and the watch lists are kept, so a
    solver cleared and refilled allocates only when a formula needs more
    room than any before it.  The next formula is decided exactly as a
    fresh solver decides it: same verdict, model and conflicts. *)

val new_var : t -> int
(** A fresh variable: 1, 2, 3, ... in order. *)

val add_clause : t -> int list -> unit
(** Add the disjunction of the literals.  Repeated literals count once
    and a clause holding a literal and its negation is dropped; the
    empty clause makes the formula unsatisfiable.  Raises
    [Invalid_argument] on literal 0 or a literal whose variable has not
    been created, adding nothing, or once {!solve} has run on the
    formula. *)

val add_literal : t -> int -> unit
(** Append a literal to the clause being built, which {!end_clause}
    adds: [add_clause s lits] is [add_literal] on each of [lits], then
    [end_clause s], with no list to build.  Raises as {!add_clause}
    does, and on a bad literal drops the clause built so far. *)

val end_clause : t -> unit
(** Add the clause built by {!add_literal} since the last clause, as
    {!add_clause} adds it. *)

val num_vars : t -> int

val num_clauses : t -> int
(** Clauses kept by {!add_clause}: tautologies are not counted. *)

val solve : ?conflict_budget:int -> ?cancel:Robust.Cancel.t -> t -> result
(** Decide the formula, once per formula; {!clear} starts another.  The
    search stops with
    [Budget_out] at its [conflict_budget]-th conflict (default
    unbounded) unless that conflict proves the formula unsatisfiable,
    and polls [cancel] once per conflict.  Raises [Invalid_argument]
    when called a second time on a formula, when a clause is not ended
    or when [conflict_budget < 1]. *)

val conflicts : t -> int
(** Conflicts met by {!solve} on the formula, the last one included. *)
