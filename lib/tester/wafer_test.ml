type mode = Table_lookup | Exact_multifault

type outcome = { chip_id : int; fault_count : int; first_fail : int option }

type result = { outcomes : outcome array; pattern_count : int; lot_size : int }

let test_chip mode c universe program (chip : Fab.Lot.chip) =
  let fault_count = Array.length chip.Fab.Lot.fault_indices in
  let first_fail =
    if fault_count = 0 then None
    else
      match mode with
      | Table_lookup -> Pattern_set.first_fail program chip.Fab.Lot.fault_indices
      | Exact_multifault ->
        let faults = Array.map (fun i -> universe.(i)) chip.Fab.Lot.fault_indices in
        Fsim.Serial.first_fail_with_fault_set c faults program.Pattern_set.patterns
  in
  { chip_id = chip.Fab.Lot.chip_id; fault_count; first_fail }

let test_lot ?(on_chip = ignore) ?(mode = Table_lookup) c universe program
    (lot : Fab.Lot.t) =
  if lot.Fab.Lot.universe_size <> Array.length universe then
    invalid_arg "Wafer_test.test_lot: lot was manufactured against a different universe";
  if Array.length lot.Fab.Lot.chips = 0 then
    invalid_arg "Wafer_test.test_lot: empty lot (yield and fail fractions are undefined)";
  let test chip =
    let outcome = test_chip mode c universe program chip in
    on_chip ();
    outcome
  in
  { outcomes = Array.map test lot.Fab.Lot.chips;
    pattern_count = Pattern_set.pattern_count program;
    lot_size = Array.length lot.Fab.Lot.chips }

let failed_by result k =
  Array.fold_left
    (fun acc o ->
      match o.first_fail with Some i when i < k -> acc + 1 | Some _ | None -> acc)
    0 result.outcomes

let fraction_failed_by result k =
  float_of_int (failed_by result k) /. float_of_int result.lot_size

let apparent_yield result =
  let passed =
    Array.fold_left
      (fun acc o -> if o.first_fail = None then acc + 1 else acc)
      0 result.outcomes
  in
  float_of_int passed /. float_of_int result.lot_size

let test_escapes result =
  Array.fold_left
    (fun acc o ->
      if o.first_fail = None && o.fault_count > 0 then acc + 1 else acc)
    0 result.outcomes

type row = {
  coverage : float;
  patterns_applied : int;
  cumulative_failed : int;
  fraction_failed : float;
}

let row_at result program k =
  { coverage = Pattern_set.coverage_after program k;
    patterns_applied = k;
    cumulative_failed = failed_by result k;
    fraction_failed = fraction_failed_by result k }

let rows_at_patterns result program ~checkpoints =
  List.map (row_at result program) checkpoints

(* First k in [1, total] with coverage_at k >= target, None when even
   the full program falls short.  coverage_at must be monotone
   non-decreasing in k (cumulative coverage is), which makes the
   predicate [coverage_at k >= target] monotone and binary-searchable:
   O(log total) instead of the former linear scan. *)
let first_reaching ~total coverage_at target =
  if total < 1 || coverage_at total < target then None
  else begin
    (* Invariant: coverage_at !hi >= target; !lo is below target
       (lo = 0 stands for the empty prefix, coverage 0 <= any target
       reachable here). *)
    let lo = ref 0 and hi = ref total in
    while !hi - !lo > 1 do
      let mid = !lo + ((!hi - !lo) / 2) in
      if coverage_at mid >= target then hi := mid else lo := mid
    done;
    Some !hi
  end

let rows_at_coverages result program ~coverages =
  let total = result.pattern_count in
  List.filter_map
    (fun target ->
      Option.map (row_at result program)
        (first_reaching ~total
           (fun k -> Pattern_set.coverage_after program k)
           target))
    coverages
