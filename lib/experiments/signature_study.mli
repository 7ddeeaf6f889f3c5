(** Signature-compaction study: MISR aliasing versus register width.

    Grades 64 seeded uniform patterns on the collapsed universe of a
    3-bit ALU, compacting the responses in MISRs of width 2, 4, 8 and
    16, and compares each aliasing rate with the 2^-w rule.  Aliasing
    adds an escape term to the paper's Eq. 8, shown as the effective
    reject rate at f = 0.90 (y = 0.07, n0 = 8). *)

val render : unit -> string
