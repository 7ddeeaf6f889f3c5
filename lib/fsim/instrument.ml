let observing () = Obs.Trace.enabled () || Obs.Metrics.enabled ()

let engine_run ~engine ~faults ~patterns f =
  Obs.Trace.with_span ("fsim." ^ engine) (fun () ->
      Obs.Trace.add_int "faults" faults;
      Obs.Trace.add_int "patterns" patterns;
      let metrics = Obs.Metrics.enabled () in
      let t0 = if metrics then Obs.Trace.now_s () else 0.0 in
      let result = f () in
      if metrics then begin
        let wall = Obs.Trace.now_s () -. t0 in
        let prefix = "fsim." ^ engine in
        Obs.Metrics.incr (prefix ^ ".runs");
        Obs.Metrics.incr ~by:(float_of_int patterns) (prefix ^ ".patterns");
        if wall > 0.0 then
          Obs.Metrics.set (prefix ^ ".patterns_per_sec")
            (float_of_int patterns /. wall)
      end;
      result)

let progress_start ~engine ~patterns =
  Obs.Progress.start ~label:("fsim." ^ engine) ~total:patterns ()

let count ~engine name n =
  if n > 0 then begin
    Obs.Trace.add_int name n;
    if Obs.Metrics.enabled () then
      Obs.Metrics.incr ~by:(float_of_int n) ("fsim." ^ engine ^ "." ^ name)
  end

let count_fault_evals ~engine n = count ~engine "fault_evals" n
let count_root_flips ~engine n = count ~engine "root_flips" n
