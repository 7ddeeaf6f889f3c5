type block = { pattern_count : int; input_words : int64 array }

let block_of_patterns (c : Circuit.Netlist.t) patterns =
  let count = Array.length patterns in
  if count = 0 || count > 64 then
    invalid_arg "Packed.block_of_patterns: need 1..64 patterns";
  let width = Array.length c.inputs in
  let input_words = Array.make width 0L in
  Array.iteri
    (fun pattern_index pattern ->
      if Array.length pattern <> width then
        invalid_arg "Packed.block_of_patterns: pattern width mismatch";
      Array.iteri
        (fun input_index value ->
          if value then
            input_words.(input_index) <-
              Int64.logor input_words.(input_index)
                (Int64.shift_left 1L pattern_index))
        pattern)
    patterns;
  { pattern_count = count; input_words }

let blocks_of_patterns c patterns =
  let total = Array.length patterns in
  let rec loop start acc =
    if start >= total then List.rev acc
    else begin
      let len = min 64 (total - start) in
      let chunk = Array.sub patterns start len in
      loop (start + len) (block_of_patterns c chunk :: acc)
    end
  in
  loop 0 []

let live_mask { pattern_count; _ } =
  if pattern_count = 64 then -1L
  else Int64.sub (Int64.shift_left 1L pattern_count) 1L

let words c = Bytes.make (8 * Circuit.Netlist.num_nodes c) '\000'

(* Word of input pin [i] of a gate with fanins [srcs]: [forced] on the
   stuck pin, else the fanin's overlay word if stamped, else its good
   word.  Inlined into every loop below, so nothing is boxed. *)
let[@inline] pin_word good faulty (stamp : int array) (generation : int) (pin : int)
    (forced : int64) (srcs : int array) i =
  if i = pin then forced
  else begin
    let s = srcs.(i) in
    Bytes.get_int64_ne (if stamp.(s) = generation then faulty else good) (s lsl 3)
  end

let[@inline] eval_gate (c : Circuit.Netlist.t) ~good ~faulty ~stamp ~generation
    ~pin ~forced id =
  let srcs = c.fanins.(id) in
  let last = Array.length srcs - 1 in
  let kind = c.kinds.(id) in
  let w =
    match kind with
    | Circuit.Gate.Input -> Bytes.get_int64_ne good (id lsl 3)
    | Circuit.Gate.Const0 -> 0L
    | Circuit.Gate.Const1 -> -1L
    | Circuit.Gate.Buf | Circuit.Gate.Not ->
      pin_word good faulty stamp generation pin forced srcs 0
    | Circuit.Gate.And | Circuit.Gate.Nand ->
      let acc = ref (pin_word good faulty stamp generation pin forced srcs 0) in
      for i = 1 to last do
        let w = pin_word good faulty stamp generation pin forced srcs i in
        acc := Int64.logand !acc w
      done;
      !acc
    | Circuit.Gate.Or | Circuit.Gate.Nor ->
      let acc = ref (pin_word good faulty stamp generation pin forced srcs 0) in
      for i = 1 to last do
        let w = pin_word good faulty stamp generation pin forced srcs i in
        acc := Int64.logor !acc w
      done;
      !acc
    | Circuit.Gate.Xor | Circuit.Gate.Xnor ->
      let acc = ref (pin_word good faulty stamp generation pin forced srcs 0) in
      for i = 1 to last do
        let w = pin_word good faulty stamp generation pin forced srcs i in
        acc := Int64.logxor !acc w
      done;
      !acc
  in
  let w =
    match kind with
    | Circuit.Gate.Not | Circuit.Gate.Nand | Circuit.Gate.Nor | Circuit.Gate.Xnor ->
      Int64.lognot w
    | _ -> w
  in
  Bytes.set_int64_ne faulty (id lsl 3) w

let eval_words (c : Circuit.Netlist.t) block words =
  for i = 0 to Array.length c.inputs - 1 do
    Bytes.set_int64_ne words (c.inputs.(i) lsl 3) block.input_words.(i)
  done;
  (* With [faulty == good] every fanin reads [words] whatever its
     stamp, so any node-indexed int array serves as [stamp]. *)
  let topo = c.topo_order in
  for k = 0 to Array.length topo - 1 do
    let id = topo.(k) in
    match c.kinds.(id) with
    | Circuit.Gate.Input -> ()
    | _ ->
      eval_gate c ~good:words ~faulty:words ~stamp:c.levels ~generation:(-1)
        ~pin:(-1) ~forced:0L id
  done

let eval_block c block =
  let w = words c in
  eval_words c block w;
  let values = Array.make (Circuit.Netlist.num_nodes c) 0L in
  for id = 0 to Array.length values - 1 do
    values.(id) <- Bytes.get_int64_ne w (id lsl 3)
  done;
  values

let output_words (c : Circuit.Netlist.t) values =
  Array.map (fun id -> values.(id)) c.outputs

let bit w i = Int64.logand (Int64.shift_right_logical w i) 1L = 1L
