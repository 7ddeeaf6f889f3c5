(* Lint walkthrough.

   Runs the static analyzer on the seeded-redundancy demo circuit,
   prints every finding, then demonstrates the point of it all for the
   paper's model: with the statically untestable faults left in the
   universe, even an exhaustive test set saturates below 100% coverage
   (Eq. 4's denominator is inflated); excluding them restores the
   ceiling to exactly 1.0. *)

let () =
  let c = Circuit.Generators.redundant_demo () in
  let report = Lint.Driver.run c in
  print_string (Lint.Driver.render_text report);

  let universe = Faults.Universe.all c in
  let width = Circuit.Netlist.num_inputs c in
  let patterns =
    Array.init (1 lsl width) (fun v ->
        Array.init width (fun i -> (v lsr i) land 1 = 1))
  in
  let profile = Fsim.Coverage.profile c universe patterns in
  Printf.printf "\nexhaustive test (%d patterns):\n" (Array.length patterns);
  Printf.printf "  raw universe (%d faults):       coverage %.4f\n"
    (Array.length universe)
    (Fsim.Coverage.final_coverage profile);
  let untestable = Lint.Driver.untestable_faults report in
  let corrected = Fsim.Coverage.excluding c profile ~universe ~untestable in
  Printf.printf "  corrected universe (%d faults): coverage %.4f\n"
    corrected.Fsim.Coverage.universe_size
    (Fsim.Coverage.final_coverage corrected)
