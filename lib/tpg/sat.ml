type result = Unsat | Sat of bool array | Budget_out

(* Internally variable [v]'s literals are [2v] (true) and [2v + 1]
   (false), so negation is [lxor 1] and the variable is [lsr 1].  A
   clause is a header word holding its size followed by its literals,
   stored at offset [cr] of the arena; literals 0 and 1 are the ones it
   watches, and the literal it implied, if any, is literal 0.  The arena,
   the per-variable arrays and the watch lists outlive a formula:
   [clear] empties them and [solve] fills the first [vars + 1] slots,
   growing them only when a formula has more variables than any before
   it. *)
type t = {
  mutable vars : int;
  mutable arena : int array;
  mutable arena_len : int;
  mutable clauses : int;
  mutable units : int list;
  mutable empty_clause : bool;
  mutable conflicts : int;
  mutable solved : bool;
  mutable scratch : int array;  (* the clause being added, sorted *)
  mutable pending : int;  (* its literals so far *)
  (* Per literal: 1 true, -1 false, 0 unassigned. *)
  mutable value : int array;
  mutable level : int array;
  mutable reason : int array;
  mutable phase : bool array;
  mutable seen : bool array;
  mutable trail : int array;
  (* [limits.(d)] is the trail length when decision level [d + 1]
     began. *)
  mutable limits : int array;
  mutable learnt : int array;
  (* The variable order: a max-heap on activity, lower index first. *)
  mutable act : float array;
  mutable slots : int array;  (* heap order, [heap_size] of them live *)
  mutable index : int array;  (* a variable's slot, or -1 outside the heap *)
  mutable heap_size : int;
  (* Per literal, the clauses watching it: [watch_len.(l)] of them. *)
  mutable watches : int array array;
  mutable watch_len : int array;
}

let create () =
  { vars = 0; arena = Array.make 1024 0; arena_len = 0; clauses = 0;
    units = []; empty_clause = false; conflicts = 0; solved = false;
    scratch = Array.make 16 0; pending = 0; value = [||]; level = [||];
    reason = [||]; phase = [||]; seen = [||]; trail = [||]; limits = [||];
    learnt = [||]; act = [||]; slots = [||]; index = [||]; heap_size = 0;
    watches = [||]; watch_len = [||] }

let clear s =
  s.vars <- 0;
  s.arena_len <- 0;
  s.clauses <- 0;
  s.units <- [];
  s.empty_clause <- false;
  s.conflicts <- 0;
  s.solved <- false;
  s.pending <- 0

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

let add_literal s l =
  if s.solved then invalid_arg "Sat.add_clause: the solver has run";
  if l = 0 || abs l > s.vars then begin
    s.pending <- 0;
    invalid_arg (Printf.sprintf "Sat.add_clause: no variable for literal %d" l)
  end;
  let i = s.pending in
  if i = Array.length s.scratch then begin
    let bigger = Array.make (2 * i) 0 in
    Array.blit s.scratch 0 bigger 0 i;
    s.scratch <- bigger
  end;
  let buf = s.scratch in
  (* Insertion sort: clauses are short. *)
  let x = if l > 0 then 2 * l else (2 * -l) + 1 in
  let j = ref i in
  while !j > 0 && buf.(!j - 1) > x do
    buf.(!j) <- buf.(!j - 1);
    decr j
  done;
  buf.(!j) <- x;
  s.pending <- i + 1

let end_clause s =
  if s.solved then invalid_arg "Sat.add_clause: the solver has run";
  let n = s.pending in
  s.pending <- 0;
  let buf = s.scratch in
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

let add_clause s lits =
  List.iter (add_literal s) lits;
  end_clause s

(* ---- variable order: a max-heap on activity, lower index first ---- *)

let before s a b = s.act.(a) > s.act.(b) || (s.act.(a) = s.act.(b) && a < b)

let place s v i =
  s.slots.(i) <- v;
  s.index.(v) <- i

let rec sift_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let v = s.slots.(i) and p = s.slots.(parent) in
    if before s v p then begin
      place s v parent;
      place s p i;
      sift_up s parent
    end
  end

let rec sift_down s i =
  let l = (2 * i) + 1 in
  if l < s.heap_size then begin
    let r = l + 1 in
    let child =
      if r < s.heap_size && before s s.slots.(r) s.slots.(l) then r else l
    in
    let v = s.slots.(i) and cv = s.slots.(child) in
    if before s cv v then begin
      place s cv i;
      place s v child;
      sift_down s child
    end
  end

let heap_insert s v =
  if s.index.(v) < 0 then begin
    place s v s.heap_size;
    s.heap_size <- s.heap_size + 1;
    sift_up s (s.heap_size - 1)
  end

let heap_pop s =
  let top = s.slots.(0) in
  s.heap_size <- s.heap_size - 1;
  s.index.(top) <- -1;
  if s.heap_size > 0 then begin
    place s s.slots.(s.heap_size) 0;
    sift_down s 0
  end;
  top

(* ---- search ------------------------------------------------------- *)

(* Room for variables 0 to [n] in the per-variable arrays, at least
   doubling them when they grow; the watch lists made so far are kept. *)
let reserve s n =
  let have = Array.length s.level in
  if have <= n then begin
    let m = max (n + 1) (2 * have) in
    s.value <- Array.make (2 * m) 0;
    s.level <- Array.make m 0;
    s.reason <- Array.make m (-1);
    s.phase <- Array.make m false;
    s.seen <- Array.make m false;
    s.trail <- Array.make m 0;
    s.limits <- Array.make m 0;
    s.learnt <- Array.make m 0;
    s.act <- Array.make m 0.0;
    s.slots <- Array.make m 0;
    s.index <- Array.make m 0;
    let watches = Array.make (2 * m) [||] in
    Array.blit s.watches 0 watches 0 (2 * have);
    s.watches <- watches;
    s.watch_len <- Array.make (2 * m) 0
  end

let decay = 1.0 /. 0.95

let solve ?(conflict_budget = max_int) ?(cancel = Robust.Cancel.none) s =
  if s.solved then invalid_arg "Sat.solve: the solver has run";
  if s.pending > 0 then invalid_arg "Sat.solve: a clause is not ended";
  if conflict_budget < 1 then invalid_arg "Sat.solve: conflict budget must be >= 1";
  s.solved <- true;
  let n = s.vars in
  reserve s n;
  (* Every variable unassigned, at activity 0 and phase false, and in
     the heap in order: at equal activity that is heap order.  [level],
     [trail], [limits] and [learnt] are written before they are read. *)
  Array.fill s.value 0 (2 * (n + 1)) 0;
  Array.fill s.reason 0 (n + 1) (-1);
  Array.fill s.phase 0 (n + 1) false;
  Array.fill s.seen 0 (n + 1) false;
  Array.fill s.act 0 (n + 1) 0.0;
  for v = 0 to n do
    s.slots.(v) <- v + 1;
    s.index.(v) <- v - 1
  done;
  s.heap_size <- n;
  Array.fill s.watch_len 0 (2 * (n + 1)) 0;
  let value = s.value and level = s.level and reason = s.reason
  and phase = s.phase and seen = s.seen and trail = s.trail
  and limits = s.limits and learnt = s.learnt in
  let watches = s.watches and watch_len = s.watch_len in
  let trail_len = ref 0 and head = ref 0 in
  (* The current decision level. *)
  let depth = ref 0 in
  let bump = ref 1.0 in
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
  (* Size each literal's watch list for the clauses that watch it from
     the start, so attaching them grows none. *)
  let each_clause f =
    let cr = ref 0 in
    while !cr < s.arena_len do
      f !cr;
      cr := !cr + s.arena.(!cr) + 1
    done
  in
  each_clause (fun cr ->
      let a = s.arena.(cr + 1) and b = s.arena.(cr + 2) in
      watch_len.(a) <- watch_len.(a) + 1;
      watch_len.(b) <- watch_len.(b) + 1);
  for l = 2 to (2 * n) + 1 do
    if watch_len.(l) > Array.length watches.(l) then
      watches.(l) <- Array.make watch_len.(l) 0;
    watch_len.(l) <- 0
  done;
  each_clause attach;
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
    let act = s.act in
    act.(v) <- act.(v) +. !bump;
    if act.(v) > 1e100 then begin
      for u = 1 to n do
        act.(u) <- act.(u) *. 1e-100
      done;
      bump := !bump *. 1e-100
    end;
    if s.index.(v) >= 0 then sift_up s s.index.(v)
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
        heap_insert s v
      done;
      trail_len := limits.(d);
      head := !trail_len;
      depth := d
    end
  in
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
        while !v = 0 && s.heap_size > 0 do
          let u = heap_pop s in
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
