type result = {
  patterns : bool array array;
  kept : int array;
  original_count : int;
}

(* Sweep the patterns in the given index order; pattern [k] is kept iff
   it detects a fault no previously kept pattern detected. *)
let sweep c faults patterns order =
  let st = Fsim.Coverage.state ~n:1 (Array.length faults) in
  let grader = Fsim.Coverage.grader c faults in
  let kept =
    List.filter
      (fun k -> Fsim.Coverage.extend_with grader st ~offset:k [| patterns.(k) |] > 0)
      order
    |> List.sort compare
  in
  { patterns = Array.of_list (List.map (fun i -> patterns.(i)) kept);
    kept = Array.of_list kept;
    original_count = Array.length patterns }

let reverse_order c faults patterns =
  let order = List.init (Array.length patterns) (fun i -> Array.length patterns - 1 - i) in
  sweep c faults patterns order

let forward_order c faults patterns =
  sweep c faults patterns (List.init (Array.length patterns) (fun i -> i))

let compaction_ratio result =
  if result.original_count = 0 then 1.0
  else float_of_int (Array.length result.kept) /. float_of_int result.original_count
