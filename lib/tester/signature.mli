(** Output-response compaction with a MISR (multiple-input signature
    register) and its aliasing cost.

    Instead of comparing every output on every pattern, production
    testers often compress the whole response stream into a short
    signature and compare once.  Compression can {e alias}: a faulty
    response stream may compress to the good signature, turning a
    detected fault back into an escape.  For a [w]-bit register the
    classical aliasing probability is ≈ 2^{-w}, which composes with the
    paper's model: the effective field reject rate of a
    signature-tested lot is the Eq. 8 value plus an aliasing term —
    {!effective_reject_rate} below.  The empirical aliasing study in the
    tests measures the 2^{-w} law on real faulty machines. *)

type t = {
  width : int;          (** Signature bits (<= 63). *)
  polynomial : int64;   (** Feedback tap mask. *)
}

val create : width:int -> t
(** A register with a standard primitive feedback polynomial for widths
    4, 8, 16, 24, 32; other widths (2..63) get x^w + x + 1. *)

val good_signature : t -> Circuit.Netlist.t -> bool array array -> int64
(** Signature of the fault-free machine over the pattern stream. *)

val faulty_signature :
  t -> Circuit.Netlist.t -> Faults.Fault.t -> bool array array -> int64
(** Signature of the machine carrying one stuck-at fault. *)

type aliasing_report = {
  detected_by_compare : int;  (** Faults the full comparison detects. *)
  detected_by_signature : int;
  aliased : int;              (** Detected by compare, masked by the MISR. *)
  aliasing_rate : float;      (** aliased / detected_by_compare. *)
}

val aliasing_study :
  t -> Circuit.Netlist.t -> Faults.Fault.t array -> bool array array ->
  aliasing_report

val effective_reject_rate :
  yield_:float -> n0:float -> signature_width:int -> float -> float
(** The paper's Eq. 8 reject rate at coverage [f], plus the aliasing
    escapes of a [signature_width]-bit MISR: detected defective chips
    alias back into the shipped stream with probability 2^{-w}. *)
