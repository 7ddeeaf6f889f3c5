(* Tests for yield models, the defect process, lots and wafers. *)

let close = Oracle.close

(* --------------------------- yield models --------------------------- *)

let model ~d0 ~area ~x =
  Fab.Yield_model.create ~defect_density:d0 ~area ~variance_ratio:x

let test_poisson_yield () =
  close ~eps:1e-12 (exp (-2.0)) (Fab.Yield_model.poisson_yield (model ~d0:2.0 ~area:1.0 ~x:0.0))

let test_stapper_poisson_limit () =
  (* Eq. 3 at X -> 0 tends to the exponential model. *)
  let lam = 1.7 in
  let poisson = exp (-.lam) in
  close ~eps:1e-12 poisson
    (Fab.Yield_model.stapper_yield (model ~d0:lam ~area:1.0 ~x:0.0));
  let near = Fab.Yield_model.stapper_yield (model ~d0:lam ~area:1.0 ~x:1e-8) in
  close ~eps:1e-6 poisson near

let test_stapper_known_value () =
  (* y = (1 + X D0 A)^(-1/X); X=0.25, D0A=3.777... gives 0.07 by the
     calibration used throughout the reproduction. *)
  let x = 0.25 in
  let d0 = Fab.Yield_model.solve_defect_density ~target_yield:0.07 ~area:1.0 ~variance_ratio:x in
  close ~eps:1e-12 0.07 (Fab.Yield_model.stapper_yield (model ~d0 ~area:1.0 ~x))

let test_solve_defect_density_roundtrip () =
  List.iter
    (fun (target, x) ->
      let d0 =
        Fab.Yield_model.solve_defect_density ~target_yield:target ~area:2.5
          ~variance_ratio:x
      in
      close ~eps:1e-10 target (Fab.Yield_model.stapper_yield (model ~d0 ~area:2.5 ~x)))
    [ (0.07, 0.25); (0.5, 0.0); (0.9, 1.0); (0.2, 0.5) ]

let test_yield_orderings () =
  (* At the same lambda: Seeds < Murphy and clustering always helps
     (stapper >= poisson). *)
  List.iter
    (fun lam ->
      let m0 = model ~d0:lam ~area:1.0 ~x:0.0 in
      let m1 = model ~d0:lam ~area:1.0 ~x:0.5 in
      Alcotest.(check bool) "stapper >= poisson" true
        (Fab.Yield_model.stapper_yield m1 >= Fab.Yield_model.poisson_yield m0);
      Alcotest.(check bool) "murphy >= poisson" true
        (Fab.Yield_model.murphy_yield m0 >= Fab.Yield_model.poisson_yield m0);
      Alcotest.(check bool) "seeds >= murphy" true
        (Fab.Yield_model.seeds_yield m0 >= Fab.Yield_model.murphy_yield m0))
    [ 0.5; 1.0; 2.0; 4.0 ]

let test_yield_zero_defects () =
  let m = model ~d0:0.0 ~area:1.0 ~x:0.3 in
  close ~eps:1e-12 1.0 (Fab.Yield_model.stapper_yield m);
  close ~eps:1e-12 1.0 (Fab.Yield_model.poisson_yield m);
  close ~eps:1e-12 1.0 (Fab.Yield_model.murphy_yield m);
  close ~eps:1e-12 1.0 (Fab.Yield_model.seeds_yield m)

let test_count_distribution_matches_yield () =
  (* P(0 defects) under the count law = the Stapper yield. *)
  List.iter
    (fun x ->
      let m = model ~d0:1.3 ~area:1.7 ~x in
      close ~eps:1e-10 (Fab.Yield_model.stapper_yield m)
        (Fab.Dist_kind.zero_probability (Fab.Yield_model.defect_count_distribution m)))
    [ 0.0; 0.25; 1.0 ]

(* ----------------------------- defects ------------------------------ *)

let make_defect ?(multiplicity = 2.0) ?(target = 0.07) ?(x = 0.25) ?(universe = 3000) () =
  let d0 =
    Fab.Yield_model.solve_defect_density ~target_yield:target ~area:1.0
      ~variance_ratio:x
  in
  Fab.Defect.create
    ~yield_model:(model ~d0 ~area:1.0 ~x)
    ~fault_multiplicity:multiplicity ~universe_size:universe ()

let test_defect_model_yield () =
  let d = make_defect () in
  close ~eps:1e-10 0.07 (Fab.Defect.model_yield d)

let test_defect_expected_n0 () =
  (* mu * lambda / (1 - y): with calibration this is the configured n0. *)
  let d = make_defect ~multiplicity:1.97 () in
  let lam = Fab.Yield_model.lambda (Fab.Defect.yield_model d) in
  close ~eps:1e-9 (1.97 *. lam /. 0.93) (Fab.Defect.expected_n0 d)

let test_defect_sampling_statistics () =
  let d = make_defect () in
  let rng = Stats.Rng.create ~seed:314 () in
  let lots = 4000 in
  let good = ref 0 and fault_sum = ref 0 and defective = ref 0 in
  for _ = 1 to lots do
    let faults = Fab.Defect.sample_chip d rng in
    if Array.length faults = 0 then incr good
    else begin
      incr defective;
      fault_sum := !fault_sum + Array.length faults
    end
  done;
  let empirical_yield = float_of_int !good /. float_of_int lots in
  close ~eps:0.02 0.07 empirical_yield;
  let empirical_n0 = float_of_int !fault_sum /. float_of_int !defective in
  (* Collisions make the empirical value slightly below expected_n0. *)
  Alcotest.(check bool) "n0 near prediction" true
    (abs_float (empirical_n0 -. Fab.Defect.expected_n0 d)
     < 0.15 *. Fab.Defect.expected_n0 d)

let test_defect_faults_sorted_distinct () =
  let d = make_defect ~multiplicity:4.0 ~target:0.3 () in
  let rng = Stats.Rng.create ~seed:77 () in
  for _ = 1 to 500 do
    let faults = Fab.Defect.sample_chip d rng in
    Array.iteri
      (fun i v ->
        Alcotest.(check bool) "in range" true (v >= 0 && v < 3000);
        if i > 0 then Alcotest.(check bool) "sorted distinct" true (faults.(i - 1) < v))
      faults
  done

let test_defect_shrink () =
  let d = make_defect () in
  let shrunk = Fab.Defect.shrink d ~area_factor:0.25 ~multiplicity_factor:4.0 in
  Alcotest.(check bool) "yield improves" true
    (Fab.Defect.model_yield shrunk > Fab.Defect.model_yield d);
  close ~eps:1e-9
    (4.0 *. Fab.Defect.fault_multiplicity d)
    (Fab.Defect.fault_multiplicity shrunk)

let test_defect_validation () =
  Alcotest.(check bool) "multiplicity < 1 rejected" true
    (try
       ignore (make_defect ~multiplicity:0.5 ());
       false
     with Invalid_argument _ -> true);
  (* Each range check is written so that NaN fails it; an infinite n0
     reaches the Poisson sampler, which refuses a non-finite mean. *)
  let nan = Float.nan and inf = Float.infinity in
  let rng = Stats.Rng.create ~seed:5 () in
  let ideal ~yield_ ~n0 () =
    Fab.Lot.manufacture_ideal ~yield_ ~n0 ~universe_size:100 rng ~count:10
  in
  List.iter
    (fun (name, f) ->
      Alcotest.(check bool) name true
        (try
           f ();
           false
         with Invalid_argument _ -> true))
    [ ("target yield nan", fun () -> ignore (make_defect ~target:nan ()));
      ("D0 nan", fun () -> ignore (model ~d0:nan ~area:1.0 ~x:0.25));
      ("area nan", fun () -> ignore (model ~d0:1.0 ~area:nan ~x:0.25));
      ("X nan", fun () -> ignore (model ~d0:1.0 ~area:1.0 ~x:nan));
      ("multiplicity nan", fun () -> ignore (make_defect ~multiplicity:nan ()));
      ("multiplicity inf", fun () ->
          (* At 7% yield one of 50 chips is defective but for 1e-58. *)
          let d = make_defect ~multiplicity:inf () in
          for _ = 1 to 50 do
            ignore (Fab.Defect.sample_chip d rng)
          done);
      ("shrink nan", fun () ->
          ignore
            (Fab.Defect.shrink (make_defect ()) ~area_factor:nan
               ~multiplicity_factor:1.0));
      ("ideal yield nan", fun () -> ignore (ideal ~yield_:nan ~n0:8.0 ()));
      ("ideal n0 nan", fun () -> ignore (ideal ~yield_:0.5 ~n0:nan ()));
      ("ideal n0 inf", fun () -> ignore (ideal ~yield_:0.0 ~n0:inf ()));
      ("edge factor nan", fun () ->
          ignore (Fab.Wafer.fabricate (make_defect ()) rng ~diameter:5
                    ~edge_factor:nan ())) ]

(* ------------------------------- lots ------------------------------- *)

let test_lot_statistics () =
  let d = make_defect () in
  let rng = Stats.Rng.create ~seed:2718 () in
  let lot = Fab.Lot.manufacture d rng ~count:3000 in
  Alcotest.(check int) "size" 3000 (Fab.Lot.size lot);
  close ~eps:0.02 0.07 (Fab.Lot.empirical_yield lot);
  (* Eq. 2: nav = (1 - y) n0 over the same lot, exactly (it's algebra
     on the same sample). *)
  let nav = Fab.Lot.mean_faults_per_chip lot in
  let n0 = Fab.Lot.mean_faults_on_defective lot in
  let y = Fab.Lot.empirical_yield lot in
  close ~eps:1e-9 nav ((1.0 -. y) *. n0)

let test_lot_histogram () =
  let d = make_defect () in
  let rng = Stats.Rng.create ~seed:99 () in
  let lot = Fab.Lot.manufacture d rng ~count:500 in
  let h = Fab.Lot.fault_count_histogram lot ~max_faults:50 in
  Alcotest.(check int) "mass preserved" 500 (Array.fold_left ( + ) 0 h);
  Alcotest.(check int) "good chips in bin 0" (Fab.Lot.good_count lot) h.(0)

let test_lot_ideal_follows_eq1 () =
  let rng = Stats.Rng.create ~seed:4242 () in
  let lot =
    Fab.Lot.manufacture_ideal ~yield_:0.07 ~n0:8.0 ~universe_size:5000 rng ~count:5000
  in
  close ~eps:0.015 0.07 (Fab.Lot.empirical_yield lot);
  close ~eps:0.15 8.0 (Fab.Lot.mean_faults_on_defective lot);
  (* Conditional variance of 1 + Poisson(7) is 7. *)
  let counts = Array.map float_of_int (Fab.Lot.defective_fault_counts lot) in
  close ~eps:0.5 7.0 (Stats.Summary.variance counts)

let test_lot_ideal_perfect_yield () =
  let rng = Stats.Rng.create ~seed:5 () in
  let lot = Fab.Lot.manufacture_ideal ~yield_:1.0 ~n0:8.0 ~universe_size:100 rng ~count:50 in
  Alcotest.(check int) "all good" 50 (Fab.Lot.good_count lot)

let test_lot_clustered_overdispersed () =
  (* The physical line must be over-dispersed relative to the ideal
     shifted-Poisson line with the same mean — the fact driving
     ablation B. *)
  let d = make_defect ~multiplicity:2.0 () in
  let rng = Stats.Rng.create ~seed:11 () in
  let lot = Fab.Lot.manufacture d rng ~count:4000 in
  let counts = Array.map float_of_int (Fab.Lot.defective_fault_counts lot) in
  let mean = Stats.Summary.mean counts in
  let variance = Stats.Summary.variance counts in
  Alcotest.(check bool) "variance exceeds shifted-Poisson's" true
    (variance > mean -. 1.0)

(* ------------------------------ wafers ------------------------------ *)

let test_wafer_geometry () =
  let d = make_defect ~target:0.5 () in
  let rng = Stats.Rng.create ~seed:6 () in
  let wafer = Fab.Wafer.fabricate d rng ~diameter:21 () in
  Array.iter
    (fun die ->
      Alcotest.(check bool) "inside disc" true
        (die.Fab.Wafer.radius <= 1.0 +. 1e-9);
      Alcotest.(check bool) "coords in grid" true
        (die.Fab.Wafer.x >= 0 && die.Fab.Wafer.x < 21 && die.Fab.Wafer.y >= 0
         && die.Fab.Wafer.y < 21))
    wafer.Fab.Wafer.dies;
  (* A disc of diameter 21 holds fewer dies than the 441 grid squares
     but more than the inscribed square. *)
  let dies = Array.length wafer.Fab.Wafer.dies in
  Alcotest.(check bool) "plausible die count" true (dies > 220 && dies < 441)

let test_wafer_edge_degradation () =
  let d = make_defect ~target:0.6 () in
  let rng = Stats.Rng.create ~seed:7 () in
  (* Average several wafers to smooth the noise. *)
  let center_good = ref 0 and center_total = ref 0 in
  let edge_good = ref 0 and edge_total = ref 0 in
  for _ = 1 to 10 do
    let wafer = Fab.Wafer.fabricate d rng ~diameter:25 ~edge_factor:4.0 () in
    Array.iter
      (fun die ->
        let good = Array.length die.Fab.Wafer.faults = 0 in
        if die.Fab.Wafer.radius < 0.4 then begin
          incr center_total;
          if good then incr center_good
        end
        else if die.Fab.Wafer.radius > 0.8 then begin
          incr edge_total;
          if good then incr edge_good
        end)
      wafer.Fab.Wafer.dies
  done;
  let center = float_of_int !center_good /. float_of_int !center_total in
  let edge = float_of_int !edge_good /. float_of_int !edge_total in
  Alcotest.(check bool) "center beats edge" true (center > edge +. 0.05)

let test_wafer_to_lot () =
  let d = make_defect ~target:0.5 () in
  let rng = Stats.Rng.create ~seed:8 () in
  let wafer = Fab.Wafer.fabricate d rng ~diameter:15 () in
  let lot = Fab.Wafer.to_lot wafer in
  Alcotest.(check int) "die count preserved"
    (Array.length wafer.Fab.Wafer.dies) (Fab.Lot.size lot)

let test_wafer_map_renders () =
  let d = make_defect ~target:0.5 () in
  let rng = Stats.Rng.create ~seed:9 () in
  let wafer = Fab.Wafer.fabricate d rng ~diameter:11 () in
  let map = Fab.Wafer.render_map wafer in
  Alcotest.(check int) "11 lines" 11
    (List.length (List.filter (fun s -> s <> "") (String.split_on_char '\n' map)));
  Alcotest.(check bool) "contains dies" true
    (String.contains map '.' || String.contains map 'X')

let qcheck_props =
  let open QCheck in
  [ Test.make ~count:100 ~name:"stapper yield decreasing in area"
      (pair (float_range 0.1 3.0) (float_range 0.0 2.0))
      (fun (d0, x) ->
        let y1 = Fab.Yield_model.stapper_yield (model ~d0 ~area:1.0 ~x) in
        let y2 = Fab.Yield_model.stapper_yield (model ~d0 ~area:2.0 ~x) in
        y2 <= y1 +. 1e-12);
    Test.make ~count:100 ~name:"solve_defect_density inverts stapper"
      (pair (float_range 0.01 0.99) (float_range 0.0 2.0))
      (fun (target, x) ->
        let d0 =
          Fab.Yield_model.solve_defect_density ~target_yield:target ~area:1.0
            ~variance_ratio:x
        in
        abs_float (Fab.Yield_model.stapper_yield (model ~d0 ~area:1.0 ~x) -. target)
        < 1e-9) ]

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [ ( "fab.yield",
      [ tc "poisson" test_poisson_yield;
        tc "stapper poisson limit" test_stapper_poisson_limit;
        tc "stapper calibrated to 7%" test_stapper_known_value;
        tc "solve roundtrip" test_solve_defect_density_roundtrip;
        tc "model orderings" test_yield_orderings;
        tc "zero defects" test_yield_zero_defects;
        tc "count law zero prob = yield" test_count_distribution_matches_yield ] );
    ( "fab.defect",
      [ tc "model yield" test_defect_model_yield;
        tc "expected n0" test_defect_expected_n0;
        tc "sampling statistics" test_defect_sampling_statistics;
        tc "faults sorted distinct" test_defect_faults_sorted_distinct;
        tc "shrink" test_defect_shrink;
        tc "validation" test_defect_validation ] );
    ( "fab.lot",
      [ tc "lot statistics + Eq.2" test_lot_statistics;
        tc "histogram" test_lot_histogram;
        tc "ideal line follows Eq.1" test_lot_ideal_follows_eq1;
        tc "ideal perfect yield" test_lot_ideal_perfect_yield;
        tc "clustered line over-dispersed" test_lot_clustered_overdispersed ] );
    ( "fab.wafer",
      [ tc "geometry" test_wafer_geometry;
        tc "edge degradation" test_wafer_edge_degradation;
        tc "to_lot" test_wafer_to_lot;
        tc "map renders" test_wafer_map_renders ] );
    ( "fab.properties",
      List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props ) ]
