type plane = int

let plane_0 = 1
let plane_1 = 2
let plane_x = 3
let plane_of_bool b = if b then plane_1 else plane_0

type t = int

let make ~good ~faulty = good lor (faulty lsl 2)
let good v = v land 3
let faulty v = v lsr 2
let with_faulty v p = (v land 3) lor (p lsl 2)

let zero = make ~good:plane_0 ~faulty:plane_0
let one = make ~good:plane_1 ~faulty:plane_1
let x = make ~good:plane_x ~faulty:plane_x
let d = make ~good:plane_1 ~faulty:plane_0
let dbar = make ~good:plane_0 ~faulty:plane_1

let of_bool b = if b then one else zero

(* The "can be 0" and "can be 1" rails of both planes. *)
let can0 = 0b0101
let can1 = 0b1010

let has_unknown v = v land (v lsr 1) land can0 <> 0

let is_fault_effect v = v = d || v = dbar

let[@inline] invert v = ((v land can0) lsl 1) lor ((v lsr 1) land can0)

(* Pin [i]'s value, with the faulty plane of pin [pin] forced. *)
let[@inline] pin_value values fanins pin forced i =
  let v = values.(fanins.(i)) in
  if i = pin then with_faulty v forced else v

(* AND and OR over the rails: an AND can be 1 only if every pin can,
   and can be 0 if any pin can; OR swaps the rails.  [all_rail] is the
   rail taken from the conjunction. *)
let and_or values fanins pin forced all_rail =
  let all = ref 0b1111 and any = ref 0 in
  for i = 0 to Array.length fanins - 1 do
    let v = pin_value values fanins pin forced i in
    all := !all land v;
    any := !any lor v
  done;
  (!all land all_rail) lor (!any land (all_rail lxor 0b1111))

let parity values fanins pin forced =
  let acc = ref zero in
  for i = 0 to Array.length fanins - 1 do
    let a = !acc and b = pin_value values fanins pin forced i in
    let a0 = a land can0 and a1 = (a lsr 1) land can0 in
    let b0 = b land can0 and b1 = (b lsr 1) land can0 in
    acc := (a0 land b0) lor (a1 land b1) lor (((a0 land b1) lor (a1 land b0)) lsl 1)
  done;
  !acc

let eval_pin kind values fanins pin forced =
  match kind with
  | Circuit.Gate.Input -> invalid_arg "Logic5.eval: Input"
  | Circuit.Gate.Const0 -> zero
  | Circuit.Gate.Const1 -> one
  | Circuit.Gate.Buf -> pin_value values fanins pin forced 0
  | Circuit.Gate.Not -> invert (pin_value values fanins pin forced 0)
  | Circuit.Gate.And -> and_or values fanins pin forced can1
  | Circuit.Gate.Nand -> invert (and_or values fanins pin forced can1)
  | Circuit.Gate.Or -> and_or values fanins pin forced can0
  | Circuit.Gate.Nor -> invert (and_or values fanins pin forced can0)
  | Circuit.Gate.Xor -> parity values fanins pin forced
  | Circuit.Gate.Xnor -> invert (parity values fanins pin forced)

let eval kind values fanins = eval_pin kind values fanins (-1) plane_x

let eval_with_pin kind values fanins ~pin ~faulty =
  eval_pin kind values fanins pin faulty
