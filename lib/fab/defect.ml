type t = {
  yield_model : Yield_model.t;
  count_law : Dist_kind.t;
  fault_multiplicity : float;
  universe_size : int;
  locality_window : int;
}

let create ~yield_model ~fault_multiplicity ~universe_size ?(locality_window = 16) () =
  if not (1.0 <= fault_multiplicity) then
    invalid_arg "Defect.create: multiplicity must be >= 1 (a defect causes at least one fault)";
  if universe_size <= 0 then invalid_arg "Defect.create: empty fault universe";
  if locality_window < 1 then invalid_arg "Defect.create: locality window must be >= 1";
  { yield_model; count_law = Yield_model.defect_count_distribution yield_model;
    fault_multiplicity; universe_size; locality_window }

let yield_model t = t.yield_model

let model_yield t = Dist_kind.zero_probability t.count_law

let fault_multiplicity t = t.fault_multiplicity

let universe_size t = t.universe_size

let expected_n0 t =
  let lam = Dist_kind.mean t.count_law in
  let y = model_yield t in
  if lam = 0.0 then t.fault_multiplicity
  else t.fault_multiplicity *. lam /. (1.0 -. y)

(* One defect: an anchor line plus extra faults clustered around it.
   The draws stop once the defect holds every line of its window: more
   would add nothing, and a huge multiplicity would cost one draw per
   extra fault. *)
let sample_defect_faults t rng add =
  let anchor = Stats.Rng.int rng t.universe_size in
  add anchor;
  let extra = Stats.Rng.poisson rng (t.fault_multiplicity -. 1.0) in
  let lo = max 0 (anchor - t.locality_window) in
  let hi = min (t.universe_size - 1) (anchor + t.locality_window) in
  let held = Array.make (hi - lo + 1) false in
  held.(anchor - lo) <- true;
  let missing = ref (hi - lo) and left = ref extra in
  while !left > 0 && !missing > 0 do
    let line = Stats.Rng.int_in rng lo hi in
    add line;
    if not held.(line - lo) then (held.(line - lo) <- true; decr missing);
    decr left
  done

let sample_chip t rng =
  let defects = Dist_kind.sample t.count_law rng in
  if defects = 0 then [||]
  else begin
    let seen = Hashtbl.create 16 in
    let add i = Hashtbl.replace seen i () in
    for _ = 1 to defects do
      sample_defect_faults t rng add
    done;
    let faults = Hashtbl.fold (fun i () acc -> i :: acc) seen [] in
    let arr = Array.of_list faults in
    Array.sort compare arr;
    arr
  end

let shrink t ~area_factor ~multiplicity_factor =
  if not (0.0 < area_factor && 0.0 < multiplicity_factor) then
    invalid_arg "Defect.shrink: factors must be positive";
  let ym = t.yield_model in
  let yield_model =
    Yield_model.create ~defect_density:ym.Yield_model.defect_density
      ~area:(ym.Yield_model.area *. area_factor)
      ~variance_ratio:ym.Yield_model.variance_ratio
  in
  create ~yield_model
    ~fault_multiplicity:(max 1.0 (t.fault_multiplicity *. multiplicity_factor))
    ~universe_size:t.universe_size ~locality_window:t.locality_window ()
