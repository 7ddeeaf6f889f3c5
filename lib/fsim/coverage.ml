type engine = Serial | Parallel | Par of { domains : int }

type profile = {
  universe_size : int;
  pattern_count : int;
  first_detection : int option array;
}

type state = Ppsfp.state = {
  n : int;
  detections : int array;
  first : int option array;
  nth : int option array;
}

let state = Ppsfp.state

(* [alive] has a slot per fault; each call gathers the alive faults'
   indices into it, in increasing order, then grades a copy of that
   prefix, since the engines reorder and compact what they are given.
   PPSFP's kernel and good-word buffer are made on the first call that
   has a fault to grade and serve every later one. *)
type grader = {
  alive : int array;
  extend :
    Robust.Cancel.t option -> state -> alive:int array -> offset:int ->
    bool array array -> int;
}

let grader ?(engine = Parallel) c faults =
  let extend =
    match engine with
    | Serial -> fun cancel -> Serial.extend ?cancel c faults
    | Parallel ->
      let g = lazy (Ppsfp.grader c) in
      fun cancel -> Ppsfp.extend ?cancel (Lazy.force g) faults
    | Par { domains } -> fun cancel -> Par.extend ?cancel ~domains c faults
  in
  { alive = Array.make (Array.length faults) 0; extend }

let extend_with ?cancel g st ~offset patterns =
  let count = ref 0 in
  for i = 0 to Array.length g.alive - 1 do
    if st.nth.(i) = None then begin
      g.alive.(!count) <- i;
      incr count
    end
  done;
  if !count = 0 then 0
  else g.extend cancel st ~alive:(Array.sub g.alive 0 !count) ~offset patterns

let extend ?engine ?cancel c faults st ~offset patterns =
  extend_with ?cancel (grader ?engine c faults) st ~offset patterns

let profiles st ~pattern_count =
  let view first_detection =
    { universe_size = Array.length first_detection; pattern_count;
      first_detection }
  in
  (view st.first, view st.nth)

let grade ?engine ?cancel ~n c faults patterns =
  let st = state ~n (Array.length faults) in
  ignore (extend ?engine ?cancel c faults st ~offset:0 patterns);
  profiles st ~pattern_count:(Array.length patterns)

let profile ?engine ?cancel c faults patterns =
  fst (grade ?engine ?cancel ~n:1 c faults patterns)

let detected_count p =
  Array.fold_left
    (fun acc d -> match d with Some _ -> acc + 1 | None -> acc)
    0 p.first_detection

let final_coverage p =
  if p.universe_size = 0 then 0.0
  else float_of_int (detected_count p) /. float_of_int p.universe_size

let coverage_after p k =
  if p.universe_size = 0 then 0.0
  else begin
    let detected =
      Array.fold_left
        (fun acc d -> match d with Some i when i < k -> acc + 1 | Some _ | None -> acc)
        0 p.first_detection
    in
    float_of_int detected /. float_of_int p.universe_size
  end

let curve p =
  (* Histogram of first detections, then a running sum: O(F + P). *)
  let new_detections = Array.make (p.pattern_count + 1) 0 in
  Array.iter
    (function
      | Some i -> new_detections.(i + 1) <- new_detections.(i + 1) + 1
      | None -> ())
    p.first_detection;
  let total = float_of_int (max 1 p.universe_size) in
  let running = ref 0 in
  Array.init p.pattern_count (fun k ->
      running := !running + new_detections.(k + 1);
      (k + 1, float_of_int !running /. total))

(* The entries of [p] whose fault is in [faults] exactly when [member]
   holds. *)
let select op c p ~universe ~faults ~member =
  if Array.length universe <> p.universe_size then
    invalid_arg (Printf.sprintf "Coverage.%s: universe does not match profile" op);
  let marks = Faults.Universe.mark c faults in
  let kept = ref [] in
  Array.iteri
    (fun i fault ->
      if marks.(Faults.Fault.id c fault) = member then
        kept := p.first_detection.(i) :: !kept)
    universe;
  let first_detection = Array.of_list (List.rev !kept) in
  { universe_size = Array.length first_detection;
    pattern_count = p.pattern_count;
    first_detection }

let excluding c p ~universe ~untestable =
  select "excluding" c p ~universe ~faults:untestable ~member:false

let restrict c p ~universe ~keep =
  select "restrict" c p ~universe ~faults:keep ~member:true

let undetected p faults =
  let misses = ref [] in
  Array.iteri
    (fun i d -> if d = None then misses := faults.(i) :: !misses)
    p.first_detection;
  List.rev !misses
