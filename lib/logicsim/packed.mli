(** Bit-parallel (64 patterns per word) logic simulation.

    This is the workhorse behind fault simulation and coverage curves:
    one pass over the netlist evaluates 64 input patterns at once, one
    64-bit word per node.  Bit [i] of a word is pattern [i] of the
    block.

    Words are stored unboxed in [Bytes]: node [id]'s word sits at byte
    [8 * id] and is read with {!word} (written with
    [Bytes.set_int64_ne]).  The good machine's result is such a buffer,
    never a boxed copy of it.  {!eval_gate} is the one gate evaluator
    of both the good machine ({!eval_words}, {!eval_block}) and the
    PPSFP fault kernel in {!Fsim.Ppsfp}; it allocates nothing. *)

type block = {
  pattern_count : int;       (** 1..64 live patterns in this block. *)
  input_words : int64 array; (** One word per primary input. *)
}

val block_of_patterns : Circuit.Netlist.t -> bool array array -> block
(** Pack 1..64 patterns (each one boolean per primary input): bit [p]
    of [input_words.(i)] is [patterns.(p).(i)], and every bit at or
    above [pattern_count] is 0.  Raises [Invalid_argument] for 0 or
    more than 64 patterns, or for a pattern whose width is not the
    number of inputs.

    Cost: one pass over the patterns, row by row, with no branch per
    bit; each value is ORed into an unboxed scratch word (8 bytes per
    input, one scratch per call).  Beyond that scratch a block
    allocates only itself: its record and its [int64 array]. *)

val blocks_of_patterns : Circuit.Netlist.t -> bool array array -> block list
(** Split an arbitrary pattern list into 64-wide blocks, in order: full
    blocks, then one block with the rest.  Packs as {!block_of_patterns}
    does, with one scratch for every block and without copying the
    patterns; a pattern of the wrong width in any block raises its
    [Invalid_argument]. *)

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

val eval_block : Circuit.Netlist.t -> block -> Bytes.t
(** The good machine of one block into a fresh {!words} buffer, filled
    by {!eval_words}: node [id]'s word for all patterns of the block is
    [word (eval_block c block) id].  It allocates that buffer alone,
    [num_nodes + 1] words (one block straight in the major heap on a
    circuit of 256 nodes or more), and no box per node. *)

val word : Bytes.t -> int -> int64
(** [word w id] reads node [id]'s word from a {!words} buffer. *)

val output_words : Circuit.Netlist.t -> Bytes.t -> int64 array
(** The primary-output words of a {!words} buffer, in output order. *)

val bit : int64 -> int -> bool
(** [bit w i] reads pattern [i]'s value from word [w]. *)
