type result = Unsat | Sat of bool array | Budget_out

(* Internally variable [v]'s literals are [2v] (true) and [2v + 1]
   (false), so negation is [lxor 1] and the variable is [lsr 1].  A
   clause is a header word holding its size followed by its literals,
   stored at offset [cr] of the arena; literals 0 and 1 are the ones it
   watches, and the literal it implied, if any, is literal 0. *)
type t = {
  mutable vars : int;
  mutable arena : int array;
  mutable arena_len : int;
  mutable clauses : int;
  mutable units : int list;
  mutable empty_clause : bool;
  mutable conflicts : int;
  mutable solved : bool;
  mutable scratch : int array;  (* the clause being added *)
}

let create () =
  { vars = 0; arena = Array.make 1024 0; arena_len = 0; clauses = 0;
    units = []; empty_clause = false; conflicts = 0; solved = false;
    scratch = Array.make 16 0 }

let new_var s =
  s.vars <- s.vars + 1;
  s.vars

let num_vars s = s.vars
let num_clauses s = s.clauses
let conflicts s = s.conflicts

(* Append a clause of [size] literals taken from [lits] and return its
   offset. *)
let store s lits size =
  let need = s.arena_len + size + 1 in
  if need > Array.length s.arena then begin
    let bigger = Array.make (max need (2 * Array.length s.arena)) 0 in
    Array.blit s.arena 0 bigger 0 s.arena_len;
    s.arena <- bigger
  end;
  let cr = s.arena_len in
  s.arena.(cr) <- size;
  Array.blit lits 0 s.arena (cr + 1) size;
  s.arena_len <- need;
  cr

let add_clause s lits =
  if s.solved then invalid_arg "Sat.add_clause: the solver has run";
  let n = List.length lits in
  if n > Array.length s.scratch then s.scratch <- Array.make (2 * n) 0;
  let buf = s.scratch in
  List.iteri
    (fun i l ->
      if l = 0 || abs l > s.vars then
        invalid_arg (Printf.sprintf "Sat.add_clause: no variable for literal %d" l);
      (* Insertion sort: clauses are short. *)
      let x = if l > 0 then 2 * l else (2 * -l) + 1 in
      let j = ref i in
      while !j > 0 && buf.(!j - 1) > x do
        buf.(!j) <- buf.(!j - 1);
        decr j
      done;
      buf.(!j) <- x)
    lits;
  (* Sorted, repeats are neighbours and so are a literal and its
     negation. *)
  let size = ref 0 and tautology = ref false in
  for i = 0 to n - 1 do
    let x = buf.(i) in
    if !size = 0 || buf.(!size - 1) <> x then begin
      if !size > 0 && buf.(!size - 1) = x lxor 1 then tautology := true;
      buf.(!size) <- x;
      incr size
    end
  done;
  if not !tautology then begin
    s.clauses <- s.clauses + 1;
    match !size with
    | 0 -> s.empty_clause <- true
    | 1 -> s.units <- buf.(0) :: s.units
    | size -> ignore (store s buf size)
  end

(* ---- variable order: a max-heap on activity, lower index first ---- *)

type heap = {
  act : float array;
  slots : int array;  (* heap order, [size] of them live *)
  index : int array;  (* a variable's slot, or -1 outside the heap *)
  mutable size : int;
}

let before h a b = h.act.(a) > h.act.(b) || (h.act.(a) = h.act.(b) && a < b)

let place h v i =
  h.slots.(i) <- v;
  h.index.(v) <- i

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let v = h.slots.(i) and p = h.slots.(parent) in
    if before h v p then begin
      place h v parent;
      place h p i;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 in
  if l < h.size then begin
    let r = l + 1 in
    let child = if r < h.size && before h h.slots.(r) h.slots.(l) then r else l in
    let v = h.slots.(i) and cv = h.slots.(child) in
    if before h cv v then begin
      place h cv i;
      place h v child;
      sift_down h child
    end
  end

let heap_insert h v =
  if h.index.(v) < 0 then begin
    place h v h.size;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)
  end

let heap_pop h =
  let top = h.slots.(0) in
  h.size <- h.size - 1;
  h.index.(top) <- -1;
  if h.size > 0 then begin
    place h h.slots.(h.size) 0;
    sift_down h 0
  end;
  top

(* ---- search ------------------------------------------------------- *)

let decay = 1.0 /. 0.95

let solve ?(conflict_budget = max_int) ?(cancel = Robust.Cancel.none) s =
  if s.solved then invalid_arg "Sat.solve: the solver has run";
  if conflict_budget < 1 then invalid_arg "Sat.solve: conflict budget must be >= 1";
  s.solved <- true;
  let n = s.vars in
  (* Per literal: 1 true, -1 false, 0 unassigned. *)
  let value = Array.make (2 * (n + 1)) 0 in
  let level = Array.make (n + 1) 0 in
  let reason = Array.make (n + 1) (-1) in
  let phase = Array.make (n + 1) false in
  let seen = Array.make (n + 1) false in
  let trail = Array.make (n + 1) 0 in
  let trail_len = ref 0 and head = ref 0 in
  (* [limits.(d)] is the trail length when decision level [d + 1]
     began; [depth] is the current decision level. *)
  let limits = Array.make (n + 1) 0 in
  let depth = ref 0 in
  let heap =
    { act = Array.make (n + 1) 0.0; slots = Array.make (n + 1) 0;
      index = Array.make (n + 1) (-1); size = 0 }
  in
  for v = 1 to n do
    heap_insert heap v
  done;
  let bump = ref 1.0 in
  let watches = Array.make (2 * (n + 1)) [||] in
  let watch_len = Array.make (2 * (n + 1)) 0 in
  let watch l cr =
    let k = watch_len.(l) in
    if k = Array.length watches.(l) then begin
      let bigger = Array.make (max 4 (2 * k)) 0 in
      Array.blit watches.(l) 0 bigger 0 k;
      watches.(l) <- bigger
    end;
    watches.(l).(k) <- cr;
    watch_len.(l) <- k + 1
  in
  let attach cr =
    watch s.arena.(cr + 1) cr;
    watch s.arena.(cr + 2) cr
  in
  let cr = ref 0 in
  while !cr < s.arena_len do
    attach !cr;
    cr := !cr + s.arena.(!cr) + 1
  done;
  let assign l why =
    value.(l) <- 1;
    value.(l lxor 1) <- -1;
    let v = l lsr 1 in
    level.(v) <- !depth;
    reason.(v) <- why;
    trail.(!trail_len) <- l;
    incr trail_len
  in
  (* Unit propagation over the watches; the conflicting clause, or -1. *)
  let propagate () =
    let arena = s.arena in
    let conflict = ref (-1) in
    while !conflict < 0 && !head < !trail_len do
      let falsified = trail.(!head) lxor 1 in
      incr head;
      let ws = watches.(falsified) in
      let count = watch_len.(falsified) in
      let i = ref 0 and kept = ref 0 in
      while !i < count do
        let cr = ws.(!i) in
        incr i;
        let lits = cr + 1 in
        if arena.(lits) = falsified then begin
          arena.(lits) <- arena.(lits + 1);
          arena.(lits + 1) <- falsified
        end;
        let other = arena.(lits) in
        if value.(other) = 1 then begin
          ws.(!kept) <- cr;
          incr kept
        end
        else begin
          let size = arena.(cr) in
          let k = ref 2 in
          while !k < size && value.(arena.(lits + !k)) = -1 do
            incr k
          done;
          if !k < size then begin
            (* A literal not yet false takes over the watch. *)
            let l = arena.(lits + !k) in
            arena.(lits + 1) <- l;
            arena.(lits + !k) <- falsified;
            watch l cr
          end
          else begin
            ws.(!kept) <- cr;
            incr kept;
            if value.(other) = -1 then begin
              conflict := cr;
              while !i < count do
                ws.(!kept) <- ws.(!i);
                incr kept;
                incr i
              done
            end
            else assign other cr
          end
        end
      done;
      watch_len.(falsified) <- !kept
    done;
    !conflict
  in
  let bump_var v =
    let act = heap.act in
    act.(v) <- act.(v) +. !bump;
    if act.(v) > 1e100 then begin
      for u = 1 to n do
        act.(u) <- act.(u) *. 1e-100
      done;
      bump := !bump *. 1e-100
    end;
    if heap.index.(v) >= 0 then sift_up heap heap.index.(v)
  in
  let undo_to d =
    if !depth > d then begin
      for k = !trail_len - 1 downto limits.(d) do
        let l = trail.(k) in
        let v = l lsr 1 in
        value.(l) <- 0;
        value.(l lxor 1) <- 0;
        reason.(v) <- -1;
        phase.(v) <- l land 1 = 0;
        heap_insert heap v
      done;
      trail_len := limits.(d);
      head := !trail_len;
      depth := d
    end
  in
  let learnt = Array.make (n + 1) 0 in
  (* First-UIP analysis of the conflicting clause [cr]: fills [learnt]
     with the asserting literal first and the literal of the highest
     remaining level second, and returns the clause's size and the
     level to go back to. *)
  let analyze cr =
    let arena = s.arena in
    let size = ref 1 in
    let open_paths = ref 0 in
    let uip = ref (-1) in
    let cursor = ref (!trail_len - 1) in
    let clause = ref cr in
    let continue = ref true in
    while !continue do
      let c = !clause in
      (* A reason clause's literal 0 is the literal it implied. *)
      for k = (if !uip < 0 then 0 else 1) to arena.(c) - 1 do
        let q = arena.(c + 1 + k) in
        let v = q lsr 1 in
        if (not seen.(v)) && level.(v) > 0 then begin
          seen.(v) <- true;
          bump_var v;
          if level.(v) >= !depth then incr open_paths
          else begin
            learnt.(!size) <- q;
            incr size
          end
        end
      done;
      while not seen.(trail.(!cursor) lsr 1) do
        decr cursor
      done;
      uip := trail.(!cursor);
      decr cursor;
      let v = !uip lsr 1 in
      seen.(v) <- false;
      clause := reason.(v);
      decr open_paths;
      if !open_paths = 0 then continue := false
    done;
    learnt.(0) <- !uip lxor 1;
    let back = ref 0 in
    for k = 1 to !size - 1 do
      let v = learnt.(k) lsr 1 in
      seen.(v) <- false;
      if level.(v) > !back then begin
        back := level.(v);
        let l = learnt.(k) in
        learnt.(k) <- learnt.(1);
        learnt.(1) <- l
      end
    done;
    (!size, !back)
  in
  let unsat_at_start =
    s.empty_clause
    || List.exists
         (fun l ->
           if value.(l) = -1 then true
           else begin
             if value.(l) = 0 then assign l (-1);
             false
           end)
         (List.rev s.units)
  in
  if unsat_at_start then Unsat
  else begin
    let rec search () =
      let conflict = propagate () in
      if conflict >= 0 then begin
        s.conflicts <- s.conflicts + 1;
        if !depth = 0 then Unsat
        else if s.conflicts >= conflict_budget || Robust.Cancel.stop_requested cancel
        then Budget_out
        else begin
          let size, back = analyze conflict in
          undo_to back;
          if size = 1 then assign learnt.(0) (-1)
          else begin
            let cr = store s learnt size in
            attach cr;
            assign learnt.(0) cr
          end;
          bump := !bump *. decay;
          search ()
        end
      end
      else begin
        let v = ref 0 in
        while !v = 0 && heap.size > 0 do
          let u = heap_pop heap in
          if value.(2 * u) = 0 then v := u
        done;
        if !v = 0 then Sat (Array.init (n + 1) (fun u -> u > 0 && value.(2 * u) = 1))
        else begin
          limits.(!depth) <- !trail_len;
          incr depth;
          assign (if phase.(!v) then 2 * !v else (2 * !v) + 1) (-1);
          search ()
        end
      end
    in
    search ()
  end
