(** Minimal JSON emitter and parser for machine-readable tool output.

    The toolkit deliberately carries no third-party JSON dependency;
    this covers the subset the reporting layers need: building a value,
    serialising it with correct string escaping and round-trippable
    numbers, and parsing it back (used to read run journals and
    checkpoints, and by the round-trip tests). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line serialisation.  Strings are escaped per RFC
    8259; non-finite floats serialise as [null]; finite floats always
    contain a ['.'] or exponent so they parse back as doubles. *)

val to_string_pretty : t -> string
(** Two-space indented serialisation, for human consumption. *)

val parse : string -> (t, string) result
(** Parse one JSON document (RFC 8259 subset: no duplicate-key checks;
    [\uXXXX] escapes decode to UTF-8, surrogate pairs unsupported).
    Numbers without ['.'], ['e'] or ['E'] that fit in an OCaml [int]
    parse as [Int], everything else as [Float] — the inverse of
    {!to_string}.  Trailing non-whitespace is an error.  Errors report
    a byte offset. *)
