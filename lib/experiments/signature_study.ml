let render () =
  let circuit = Circuit.Generators.alu ~bits:3 in
  let classes = Faults.Collapse.equivalence circuit (Faults.Universe.all circuit) in
  let universe = Faults.Collapse.representatives classes in
  let rng = Stats.Rng.create ~seed:2 () in
  let patterns = Tpg.Random_tpg.uniform rng circuit ~count:64 in
  let rows =
    List.map
      (fun width ->
        let misr = Tester.Signature.create ~width in
        let r = Tester.Signature.aliasing_study misr circuit universe patterns in
        [ string_of_int width;
          string_of_int r.Tester.Signature.detected_by_compare;
          string_of_int r.Tester.Signature.aliased;
          Printf.sprintf "%.4f" r.Tester.Signature.aliasing_rate;
          Printf.sprintf "%.4f" (2.0 ** float_of_int (-width)) ])
      [ 2; 4; 8; 16 ]
  in
  Report.Table.render
    ~headers:[ "MISR width"; "detected"; "aliased"; "rate"; "2^-w" ] rows
  ^ Printf.sprintf
      "\neffective reject rate at f = 0.90 (y = 0.07, n0 = 8): compare %.5f | \
       w=8 MISR %.5f | w=16 MISR %.5f\n"
      (Quality.Reject.reject_rate ~yield_:0.07 ~n0:8.0 0.9)
      (Tester.Signature.effective_reject_rate ~yield_:0.07 ~n0:8.0
         ~signature_width:8 0.9)
      (Tester.Signature.effective_reject_rate ~yield_:0.07 ~n0:8.0
         ~signature_width:16 0.9)
