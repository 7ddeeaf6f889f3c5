(** Lint diagnostics: one finding of one rule on one netlist.

    Every rule in the subsystem reports through this type so the CLI
    can render all findings uniformly (as an aligned table or as JSON)
    and gate its exit code on the worst severity present. *)

type severity =
  | Error    (** Almost certainly a design bug (e.g. a constant primary output). *)
  | Warning  (** Structural or testability defect worth fixing. *)
  | Info     (** Statistics and advisory findings. *)

type t = {
  rule : string;          (** Rule identifier, kebab-case (e.g. ["dead-logic"]). *)
  severity : severity;
  node : int option;      (** Offending node id, when the finding is local. *)
  node_name : string;     (** Name of [node]; [""] for circuit-level findings. *)
  message : string;
}

val make :
  ?node:int -> Circuit.Netlist.t -> rule:string -> severity:severity ->
  string -> t
(** Build a diagnostic, resolving [node]'s name from the netlist. *)

val compare : t -> t -> int
(** Severity first, then rule id, then node id — the rendering order. *)

val counts : t list -> int * int * int
(** (errors, warnings, infos). *)

val render_table : t list -> string
(** Aligned text table via {!Report.Table}; empty string for no
    diagnostics. *)

val to_json : t -> Report.Json.t
