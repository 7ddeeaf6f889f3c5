(* Per-layer accounting for the traced run.

   [call name f] wraps one call into a layer of the program in a span
   named ["bench." ^ name] and adds the [Gc.quick_stat] delta of that call
   to the layer's tally.  While accounting is off it is a plain call, so
   the untraced run measures the program alone.  Spans recorded by the
   library itself while tracing is on nest inside these; a layer's self
   time is its spans' duration minus the part covered by nested
   [bench.*] spans, so library spans count towards the layer that made
   the call. *)

let prefix = "bench."

let on = ref false

type tally = { mutable minor_words : float; mutable major_collections : int }

let tallies : (string, tally) Hashtbl.t = Hashtbl.create 16

let tally name =
  match Hashtbl.find_opt tallies name with
  | Some t -> t
  | None ->
    let t = { minor_words = 0.0; major_collections = 0 } in
    Hashtbl.add tallies name t;
    t

let call name f =
  if not !on then f ()
  else begin
    (* Allocation counts are only folded into [Gc.quick_stat] at minor
       collections, so force one on each side of the call. *)
    Gc.minor ();
    let before = Gc.quick_stat () in
    let result = Obs.Trace.with_span (prefix ^ name) f in
    Gc.minor ();
    let after = Gc.quick_stat () in
    let t = tally name in
    t.minor_words <- t.minor_words +. (after.Gc.minor_words -. before.Gc.minor_words);
    t.major_collections <-
      t.major_collections + (after.Gc.major_collections - before.Gc.major_collections);
    result
  end

let start () =
  Hashtbl.reset tallies;
  Obs.Trace.reset ();
  Obs.Metrics.reset ();
  Obs.Trace.set_enabled true;
  Obs.Metrics.set_enabled true;
  on := true

let stop () =
  on := false;
  Obs.Trace.set_enabled false;
  Obs.Metrics.set_enabled false

let minor_words name = (tally name).minor_words

let major_collections name = (tally name).major_collections

(* A counter the library keeps in [Obs.Metrics]; 0 before its first use. *)
let counter name = Option.value ~default:0.0 (Obs.Metrics.value name)

(* Self time per layer, summed over every span of the trace. *)
let self_times () =
  let spans = Obs.Trace.spans () in
  let by_seq = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_seq (s.Obs.Trace.tid, s.seq) s) spans;
  let is_bench s = String.starts_with ~prefix s.Obs.Trace.name in
  let layer s =
    let n = String.length prefix in
    String.sub s.Obs.Trace.name n (String.length s.Obs.Trace.name - n)
  in
  let rec enclosing s =
    match Hashtbl.find_opt by_seq (s.Obs.Trace.tid, s.parent) with
    | None -> None
    | Some p -> if is_bench p then Some p else enclosing p
  in
  let self = Hashtbl.create 16 in
  let bump name d =
    Hashtbl.replace self name
      (d +. Option.value ~default:0.0 (Hashtbl.find_opt self name))
  in
  List.iter
    (fun s ->
      if is_bench s then begin
        let d = s.Obs.Trace.t1 -. s.t0 in
        bump (layer s) d;
        Option.iter (fun p -> bump (layer p) (-.d)) (enclosing s)
      end)
    spans;
  fun name -> Option.value ~default:0.0 (Hashtbl.find_opt self name)

let write_trace path =
  let oc = open_out path in
  output_string oc (Report.Json.to_string (Obs.Trace.to_chrome_json ()));
  close_out oc
