exception No_bracket

let same_sign a b = (a >= 0.0 && b >= 0.0) || (a <= 0.0 && b <= 0.0)

let bisect ?(tol = 1e-12) ?(max_iter = 200) ~f ~lo ~hi () =
  let flo = f lo and fhi = f hi in
  if flo = 0.0 then lo
  else if fhi = 0.0 then hi
  else if same_sign flo fhi then raise No_bracket
  else begin
    let rec loop lo hi flo iter =
      let mid = 0.5 *. (lo +. hi) in
      if hi -. lo < tol || iter = 0 then mid
      else begin
        let fmid = f mid in
        if fmid = 0.0 then mid
        else if same_sign flo fmid then loop mid hi fmid (iter - 1)
        else loop lo mid flo (iter - 1)
      end
    in
    loop lo hi flo max_iter
  end

let brent ?(tol = 1e-12) ?(max_iter = 200) ~f ~lo ~hi () =
  let a = ref lo and b = ref hi in
  let fa = ref (f lo) and fb = ref (f hi) in
  if !fa = 0.0 then lo
  else if !fb = 0.0 then hi
  else if same_sign !fa !fb then raise No_bracket
  else begin
    if abs_float !fa < abs_float !fb then begin
      let t = !a in a := !b; b := t;
      let t = !fa in fa := !fb; fb := t
    end;
    let c = ref !a and fc = ref !fa in
    let d = ref (!b -. !a) in
    let mflag = ref true in
    let iter = ref 0 in
    while abs_float !fb > 0.0 && abs_float (!b -. !a) > tol && !iter < max_iter do
      incr iter;
      let s =
        if !fa <> !fc && !fb <> !fc then
          (* Inverse quadratic interpolation. *)
          (!a *. !fb *. !fc /. ((!fa -. !fb) *. (!fa -. !fc)))
          +. (!b *. !fa *. !fc /. ((!fb -. !fa) *. (!fb -. !fc)))
          +. (!c *. !fa *. !fb /. ((!fc -. !fa) *. (!fc -. !fb)))
        else !b -. (!fb *. (!b -. !a) /. (!fb -. !fa))
      in
      let lo_bound = (3.0 *. !a +. !b) /. 4.0 in
      let out_of_range =
        if lo_bound < !b then s < lo_bound || s > !b else s > lo_bound || s < !b
      in
      let s =
        if
          out_of_range
          || (!mflag && abs_float (s -. !b) >= abs_float (!b -. !c) /. 2.0)
          || ((not !mflag) && abs_float (s -. !b) >= abs_float !d /. 2.0)
        then begin
          mflag := true;
          0.5 *. (!a +. !b)
        end
        else begin
          mflag := false;
          s
        end
      in
      let fs = f s in
      d := !c -. !b;
      c := !b;
      fc := !fb;
      if same_sign !fa fs then begin a := s; fa := fs end
      else begin b := s; fb := fs end;
      if abs_float !fa < abs_float !fb then begin
        let t = !a in a := !b; b := t;
        let t = !fa in fa := !fb; fb := t
      end
    done;
    !b
  end

let find_bracket ?(grow = 1.6) ?(max_iter = 60) ~f ~lo ~hi () =
  if not (lo < hi) then invalid_arg "Solver.find_bracket: empty interval";
  let rec loop lo hi flo fhi iter =
    if not (same_sign flo fhi) then Some (lo, hi)
    else if iter = 0 then None
    else begin
      let width = hi -. lo in
      if abs_float flo < abs_float fhi then begin
        let lo' = lo -. (grow *. width) in
        loop lo' hi (f lo') fhi (iter - 1)
      end
      else begin
        let hi' = hi +. (grow *. width) in
        loop lo hi' flo (f hi') (iter - 1)
      end
    end
  in
  loop lo hi (f lo) (f hi) max_iter

let golden_section_min ?(tol = 1e-10) ?(max_iter = 200) ~f ~lo ~hi () =
  let inv_phi = (sqrt 5.0 -. 1.0) /. 2.0 in
  let rec loop a b c d fc fd iter =
    if b -. a < tol || iter = 0 then 0.5 *. (a +. b)
    else if fc < fd then begin
      let b = d in
      let d = c in
      let c = b -. (inv_phi *. (b -. a)) in
      loop a b c d (f c) fc (iter - 1)
    end
    else begin
      let a = c in
      let c = d in
      let d = a +. (inv_phi *. (b -. a)) in
      loop a b c d fd (f d) (iter - 1)
    end
  in
  let c = hi -. (inv_phi *. (hi -. lo)) in
  let d = lo +. (inv_phi *. (hi -. lo)) in
  loop lo hi c d (f c) (f d) max_iter

let newton ?(tol = 1e-12) ?(max_iter = 100) ~f ~df ~x0 () =
  let rec loop x fx iter =
    if abs_float fx < tol then x
    else if iter = 0 then failwith "Solver.newton: no convergence"
    else begin
      let slope = df x in
      if slope = 0.0 then failwith "Solver.newton: zero derivative";
      (* Halve the step until the residual actually shrinks. *)
      let rec damp step tries =
        let x' = x -. step in
        let fx' = f x' in
        if abs_float fx' < abs_float fx || tries = 0 then (x', fx')
        else damp (step /. 2.0) (tries - 1)
      in
      let x', fx' = damp (fx /. slope) 30 in
      loop x' fx' (iter - 1)
    end
  in
  loop x0 (f x0) max_iter
