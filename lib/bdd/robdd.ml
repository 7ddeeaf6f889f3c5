exception Exceeded

type node = int

type t = {
  num_vars : int;
  budget : int;
  mutable cap : int;
  mutable level : int array;   (* level.(id); terminals sit at num_vars *)
  mutable low : int array;
  mutable high : int array;
  mutable next : int;          (* next free id = nodes allocated so far *)
  unique : (int * int * int, int) Hashtbl.t;
  computed : (int * int * int, int) Hashtbl.t;  (* ITE cache *)
  mutable lookups : int;
  mutable hits : int;
}

let zero = 0
let one = 1

let default_budget = 1_000_000

let create ?(budget = default_budget) ~num_vars () =
  if num_vars < 0 then invalid_arg "Robdd.create: num_vars < 0";
  if budget < 2 then invalid_arg "Robdd.create: budget < 2";
  let cap = 1024 in
  let t =
    {
      num_vars;
      budget;
      cap;
      level = Array.make cap num_vars;
      low = Array.make cap (-1);
      high = Array.make cap (-1);
      next = 2;
      unique = Hashtbl.create 1024;
      computed = Hashtbl.create 1024;
      lookups = 0;
      hits = 0;
    }
  in
  t.level.(zero) <- num_vars;
  t.level.(one) <- num_vars;
  t

let budget t = t.budget
let size t = t.next
let cache_lookups t = t.lookups
let cache_hits t = t.hits

let cache_hit_rate t =
  if t.lookups = 0 then 0.0 else float_of_int t.hits /. float_of_int t.lookups

let grow t =
  let cap' = 2 * t.cap in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 t.cap;
    a'
  in
  t.level <- extend t.level t.num_vars;
  t.low <- extend t.low (-1);
  t.high <- extend t.high (-1);
  t.cap <- cap'

(* The one allocation point: reduction (low = high) and hash-consing
   happen here, so node ids are canonical by construction. *)
let mk t lvl lo hi =
  if lo = hi then lo
  else
    let key = (lvl, lo, hi) in
    match Hashtbl.find_opt t.unique key with
    | Some id -> id
    | None ->
      if t.next >= t.budget then raise Exceeded;
      if t.next >= t.cap then grow t;
      let id = t.next in
      t.next <- id + 1;
      t.level.(id) <- lvl;
      t.low.(id) <- lo;
      t.high.(id) <- hi;
      Hashtbl.add t.unique key id;
      id

let var t lvl =
  if lvl < 0 || lvl >= t.num_vars then invalid_arg "Robdd.var: level out of range";
  mk t lvl zero one

(* Cofactor of [n] w.r.t. the variable at [lvl]: a node above that
   level does not depend on it. *)
let cof t n lvl side =
  if t.level.(n) = lvl then (if side then t.high.(n) else t.low.(n)) else n

let rec ite t f g h =
  (* ite(f, f, h) = ite(f, 1, h) and ite(f, g, f) = ite(f, g, 0):
     normalizing first improves cache sharing. *)
  let g = if g = f then one else g in
  let h = if h = f then zero else h in
  if f = one then g
  else if f = zero then h
  else if g = h then g
  else if g = one && h = zero then f
  else begin
    let key = (f, g, h) in
    t.lookups <- t.lookups + 1;
    match Hashtbl.find_opt t.computed key with
    | Some r ->
      t.hits <- t.hits + 1;
      r
    | None ->
      let top = min t.level.(f) (min t.level.(g) t.level.(h)) in
      let r0 = ite t (cof t f top false) (cof t g top false) (cof t h top false) in
      let r1 = ite t (cof t f top true) (cof t g top true) (cof t h top true) in
      let r = mk t top r0 r1 in
      Hashtbl.add t.computed key r;
      r
  end

let not_ t f = ite t f zero one
let and_ t f g = ite t f g zero
let or_ t f g = ite t f one g
let xor t f g = ite t f (ite t g zero one) g
let xnor t f g = ite t f g (ite t g zero one)

let eval t n assignment =
  if Array.length assignment <> t.num_vars then
    invalid_arg "Robdd.eval: assignment length mismatch";
  let cur = ref n in
  while !cur > one do
    cur := if assignment.(t.level.(!cur)) then t.high.(!cur) else t.low.(!cur)
  done;
  !cur = one

let probability t root =
  let memo = Hashtbl.create 64 in
  (* Path depth is bounded by num_vars (levels strictly increase), so
     recursion is safe even on budget-sized diagrams. *)
  let rec p n =
    if n = zero then 0.0
    else if n = one then 1.0
    else
      match Hashtbl.find_opt memo n with
      | Some v -> v
      | None ->
        let v = 0.5 *. (p t.low.(n) +. p t.high.(n)) in
        Hashtbl.add memo n v;
        v
  in
  p root

let sat_count t root =
  probability t root *. (2.0 ** float_of_int t.num_vars)

let any_sat t root =
  if root = zero then None
  else
    (* Reduction guarantees every non-terminal reaches [one]: a node
       whose cone only reached [zero] would itself have been reduced
       to [zero].  Prefer the high branch when it is live. *)
    let rec go n acc =
      if n = one then List.rev acc
      else if t.high.(n) <> zero then go t.high.(n) ((t.level.(n), true) :: acc)
      else go t.low.(n) ((t.level.(n), false) :: acc)
    in
    Some (go root [])

let shared_count t roots =
  let seen = Hashtbl.create 64 in
  let count = ref 0 in
  let rec visit n =
    if n > one && not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      incr count;
      visit t.low.(n);
      visit t.high.(n)
    end
  in
  List.iter visit roots;
  !count

let node_count t root = shared_count t [ root ]
