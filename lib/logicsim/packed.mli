(** Bit-parallel (64 patterns per word) logic simulation.

    This is the workhorse behind fault simulation and coverage curves:
    one pass over the netlist evaluates 64 input patterns at once, one
    64-bit word per node.  Bit [i] of a word is pattern [i] of the
    block.

    Words are stored unboxed in [Bytes]: node [id]'s word sits at byte
    [8 * id] and is read and written with [Bytes.get_int64_ne] /
    [Bytes.set_int64_ne].  {!eval_gate} is the one gate evaluator of
    both the good machine ({!eval_words}) and the PPSFP fault kernel
    in {!Fsim.Ppsfp}; it allocates nothing. *)

type block = {
  pattern_count : int;       (** 1..64 live patterns in this block. *)
  input_words : int64 array; (** One word per primary input. *)
}

val block_of_patterns : Circuit.Netlist.t -> bool array array -> block
(** Pack up to 64 patterns (each one boolean per primary input). *)

val blocks_of_patterns : Circuit.Netlist.t -> bool array array -> block list
(** Split an arbitrary pattern list into 64-wide blocks, in order. *)

val live_mask : block -> int64
(** Mask with bit [i] set iff pattern [i] exists in the block; compare
    output words under this mask only. *)

val words : Circuit.Netlist.t -> Bytes.t
(** A zeroed word buffer with one 8-byte slot per node. *)

val eval_words : Circuit.Netlist.t -> block -> Bytes.t -> unit
(** The good machine: store the block's input words at the input
    slots of a {!words} buffer, then every other node's word, in
    topological order. *)

val eval_gate :
  Circuit.Netlist.t ->
  good:Bytes.t ->
  faulty:Bytes.t ->
  stamp:int array ->
  generation:int ->
  pin:int ->
  forced:int64 ->
  int ->
  unit
(** [eval_gate c ~good ~faulty ~stamp ~generation ~pin ~forced id]
    computes node [id]'s word from its fanins and stores it at [id] in
    [faulty].  Fanin node [s] is read from [faulty] when
    [stamp.(s) = generation] and from [good] otherwise (the fault
    kernel's copy-on-write overlay); input pin [pin] reads [forced]
    instead (a stuck-at branch; [-1] for none).  An input node keeps
    its [good] word.  The good machine passes [faulty == good], so
    every fanin reads that one buffer. *)

val eval_block : Circuit.Netlist.t -> block -> int64 array
(** Evaluate every node for all patterns of the block; result is indexed
    by node id. *)

val output_words : Circuit.Netlist.t -> int64 array -> int64 array
(** Extract the primary-output words from a node-value array. *)

val bit : int64 -> int -> bool
(** [bit w i] reads pattern [i]'s value from word [w]. *)
