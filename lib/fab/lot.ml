type chip = { chip_id : int; fault_indices : int array }

type t = { chips : chip array; universe_size : int }

let record_lot_stats t =
  Obs.Trace.add_int "chips" (Array.length t.chips);
  let defective =
    Array.fold_left
      (fun acc chip -> if Array.length chip.fault_indices > 0 then acc + 1 else acc)
      0 t.chips
  in
  Obs.Trace.add_int "defective" defective;
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr ~by:(float_of_int (Array.length t.chips)) "fab.lot.chips";
    Obs.Metrics.incr ~by:(float_of_int defective) "fab.lot.defective"
  end;
  t

let manufacture ?(on_chip = ignore) defect rng ~count =
  if count <= 0 then invalid_arg "Lot.manufacture: nonpositive lot size";
  Obs.Trace.with_span "fab.lot.manufacture" @@ fun () ->
  let progress = Obs.Progress.start ~label:"fab.lot" ~total:count () in
  let chips =
    Array.init count (fun chip_id ->
        let chip = { chip_id; fault_indices = Defect.sample_chip defect rng } in
        Obs.Progress.step progress 1;
        on_chip ();
        chip)
  in
  Obs.Progress.finish progress;
  record_lot_stats { chips; universe_size = Defect.universe_size defect }

let manufacture_ideal ?(on_chip = ignore) ~yield_ ~n0 ~universe_size rng ~count =
  if count <= 0 then invalid_arg "Lot.manufacture_ideal: nonpositive lot size";
  if not (0.0 <= yield_ && yield_ <= 1.0) then
    invalid_arg "Lot.manufacture_ideal: yield outside [0,1]";
  if not (1.0 <= n0) then invalid_arg "Lot.manufacture_ideal: n0 must be >= 1";
  if universe_size <= 0 then invalid_arg "Lot.manufacture_ideal: empty universe";
  Obs.Trace.with_span "fab.lot.manufacture_ideal" @@ fun () ->
  let progress = Obs.Progress.start ~label:"fab.lot" ~total:count () in
  let chips =
    Array.init count (fun chip_id ->
        let fault_indices =
          if Stats.Rng.uniform rng < yield_ then [||]
          else begin
            let n = min universe_size (1 + Stats.Rng.poisson rng (n0 -. 1.0)) in
            let faults = Stats.Rng.sample_without_replacement rng ~k:n ~n:universe_size in
            Array.sort compare faults;
            faults
          end
        in
        Obs.Progress.step progress 1;
        on_chip ();
        { chip_id; fault_indices })
  in
  Obs.Progress.finish progress;
  record_lot_stats { chips; universe_size }

let size t = Array.length t.chips

let good_count t =
  Array.fold_left
    (fun acc chip -> if Array.length chip.fault_indices = 0 then acc + 1 else acc)
    0 t.chips

let empirical_yield t = float_of_int (good_count t) /. float_of_int (size t)

let defective_fault_counts t =
  Array.to_list t.chips
  |> List.filter_map (fun chip ->
         let n = Array.length chip.fault_indices in
         if n > 0 then Some n else None)
  |> Array.of_list

let mean_faults_on_defective t =
  let counts = defective_fault_counts t in
  if Array.length counts = 0 then
    invalid_arg "Lot.mean_faults_on_defective: no defective chips";
  Stats.Summary.mean_int counts

let mean_faults_per_chip t =
  let total =
    Array.fold_left (fun acc chip -> acc + Array.length chip.fault_indices) 0 t.chips
  in
  float_of_int total /. float_of_int (size t)

let fault_count_histogram t ~max_faults =
  let h = Array.make (max_faults + 1) 0 in
  Array.iter
    (fun chip ->
      let n = min max_faults (Array.length chip.fault_indices) in
      h.(n) <- h.(n) + 1)
    t.chips;
  h
