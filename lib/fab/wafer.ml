type die = { x : int; y : int; radius : float; faults : int array }

type t = { diameter : int; dies : die array; universe_size : int }

let die_positions diameter =
  let center = (float_of_int diameter -. 1.0) /. 2.0 in
  let half = float_of_int diameter /. 2.0 in
  let positions = ref [] in
  for y = diameter - 1 downto 0 do
    for x = diameter - 1 downto 0 do
      let dx = float_of_int x -. center and dy = float_of_int y -. center in
      let r = sqrt ((dx *. dx) +. (dy *. dy)) /. half in
      if r <= 1.0 then positions := (x, y, r) :: !positions
    done
  done;
  !positions

let fabricate defect rng ~diameter ?(edge_factor = 3.0) () =
  if diameter < 3 then invalid_arg "Wafer.fabricate: diameter too small";
  if not (1.0 <= edge_factor) then
    invalid_arg "Wafer.fabricate: edge_factor must be >= 1";
  let base = Defect.yield_model defect in
  (* Normalize so the disc-averaged density equals the model's D0:
     mean over the disc of (1 + (e-1) r^2) with area weighting is
     1 + (e-1)/2. *)
  let normalization = 1.0 +. ((edge_factor -. 1.0) /. 2.0) in
  let dies =
    die_positions diameter
    |> List.map (fun (x, y, radius) ->
           let scale = (1.0 +. ((edge_factor -. 1.0) *. radius *. radius)) /. normalization in
           let local_yield_model =
             Yield_model.create
               ~defect_density:(base.Yield_model.defect_density *. scale)
               ~area:base.Yield_model.area
               ~variance_ratio:base.Yield_model.variance_ratio
           in
           let local_defect =
             Defect.create ~yield_model:local_yield_model
               ~fault_multiplicity:(Defect.fault_multiplicity defect)
               ~universe_size:(Defect.universe_size defect) ()
           in
           { x; y; radius; faults = Defect.sample_chip local_defect rng })
    |> Array.of_list
  in
  { diameter; dies; universe_size = Defect.universe_size defect }

let to_lot t =
  { Lot.chips =
      Array.mapi
        (fun i die -> { Lot.chip_id = i; fault_indices = die.faults })
        t.dies;
    universe_size = t.universe_size }

let yield_by_ring t ~rings =
  if rings <= 0 then invalid_arg "Wafer.yield_by_ring: nonpositive ring count";
  let good = Array.make rings 0 and total = Array.make rings 0 in
  Array.iter
    (fun die ->
      let ring = min (rings - 1) (int_of_float (die.radius *. float_of_int rings)) in
      total.(ring) <- total.(ring) + 1;
      if Array.length die.faults = 0 then good.(ring) <- good.(ring) + 1)
    t.dies;
  Array.init rings (fun ring ->
      let center = (float_of_int ring +. 0.5) /. float_of_int rings in
      let y =
        if total.(ring) = 0 then 0.0
        else float_of_int good.(ring) /. float_of_int total.(ring)
      in
      (center, y))

let render_map t =
  let grid = Array.make_matrix t.diameter t.diameter ' ' in
  Array.iter
    (fun die ->
      grid.(die.y).(die.x) <- (if Array.length die.faults = 0 then '.' else 'X'))
    t.dies;
  let buf = Buffer.create (t.diameter * (t.diameter + 1)) in
  Array.iter
    (fun row ->
      Array.iter (Buffer.add_char buf) row;
      Buffer.add_char buf '\n')
    grid;
  Buffer.contents buf
