let require_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty array")

let mean xs =
  require_nonempty "Summary.mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    (* Welford's online algorithm: numerically stable single pass. *)
    let m = ref 0.0 and s = ref 0.0 in
    Array.iteri
      (fun i x ->
        let delta = x -. !m in
        m := !m +. (delta /. float_of_int (i + 1));
        s := !s +. (delta *. (x -. !m)))
      xs;
    !s /. float_of_int (n - 1)
  end

let minimum xs =
  require_nonempty "Summary.minimum" xs;
  Array.fold_left min xs.(0) xs

let maximum xs =
  require_nonempty "Summary.maximum" xs;
  Array.fold_left max xs.(0) xs

let quantile xs q =
  require_nonempty "Summary.quantile" xs;
  if not (0.0 <= q && q <= 1.0) then invalid_arg "Summary.quantile: q outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let h = q *. float_of_int (n - 1) in
  let i = int_of_float (floor h) in
  if i >= n - 1 then sorted.(n - 1)
  else sorted.(i) +. ((h -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let median xs = quantile xs 0.5

let correlation xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Summary.correlation: length mismatch";
  require_nonempty "Summary.correlation" xs;
  let mx = mean xs and my = mean ys in
  let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
  Array.iteri
    (fun i x ->
      let dx = x -. mx and dy = ys.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy))
    xs;
  if !sxx = 0.0 || !syy = 0.0 then 0.0 else !sxy /. sqrt (!sxx *. !syy)

type histogram = { lo : float; hi : float; counts : int array }

let histogram ~bins xs =
  if bins <= 0 then invalid_arg "Summary.histogram: nonpositive bin count";
  require_nonempty "Summary.histogram" xs;
  let lo = minimum xs and hi = maximum xs in
  let counts = Array.make bins 0 in
  let width = if hi > lo then hi -. lo else 1.0 in
  Array.iter
    (fun x ->
      let raw = int_of_float (float_of_int bins *. (x -. lo) /. width) in
      let i = min (bins - 1) (max 0 raw) in
      counts.(i) <- counts.(i) + 1)
    xs;
  { lo; hi; counts }

let mean_int xs =
  if Array.length xs = 0 then invalid_arg "Summary.mean_int: empty array";
  float_of_int (Array.fold_left ( + ) 0 xs) /. float_of_int (Array.length xs)
