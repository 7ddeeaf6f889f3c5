module N = Circuit.Netlist

(* Immediate-dominator forest over node ids; [sink] (= num_nodes) is
   the virtual node every primary output feeds.  [idom.(id) = -1]
   marks a stem with no path to any output. *)
type t = {
  idom : int array;      (* length num_nodes + 1; sink maps to itself *)
  order : int array;     (* processing index, sink first *)
  sink : int;
}

let compute (c : N.t) =
  Obs.Trace.with_span "analysis.dominators" @@ fun () ->
  let n = N.num_nodes c in
  let sink = n in
  let idom = Array.make (n + 1) (-1) in
  let order = Array.make (n + 1) (-1) in
  idom.(sink) <- sink;
  order.(sink) <- 0;
  (* Walk one node up its dominator chain; [order] strictly decreases
     toward the sink, so the classical two-finger intersection
     terminates. *)
  let rec intersect a b =
    if a = b then a
    else if order.(a) > order.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let next = ref 1 in
  (* Reverse topological order: every fanout (and the sink) is
     processed before the node itself, so one pass is exact. *)
  for i = Array.length c.N.topo_order - 1 downto 0 do
    let id = c.N.topo_order.(i) in
    let join = ref (if N.is_output c id then sink else -1) in
    Array.iter
      (fun dst ->
        (* An unobservable fanout contributes no path to an output. *)
        if idom.(dst) <> -1 then
          join := if !join = -1 then dst else intersect !join dst)
      c.N.fanouts.(id);
    if !join <> -1 then begin
      idom.(id) <- !join;
      order.(id) <- !next;
      incr next
    end
  done;
  let unobservable = ref 0 in
  for id = 0 to n - 1 do
    if idom.(id) = -1 then incr unobservable
  done;
  Obs.Trace.add_int "nodes" n;
  Obs.Trace.add_int "unobservable" !unobservable;
  if Obs.Metrics.enabled () then
    Obs.Metrics.incr "analysis.dominators.runs";
  { idom; order; sink }

let observable t id = t.idom.(id) <> -1

let idom t id =
  match t.idom.(id) with
  | -1 -> None
  | d when d = t.sink -> None
  | d -> Some d

let dominators t id =
  if t.idom.(id) = -1 then []
  else begin
    let rec chain id acc =
      let d = t.idom.(id) in
      if d = t.sink then List.rev acc else chain d (d :: acc)
    in
    chain id []
  end

let unobservable_stems t =
  let acc = ref [] in
  for id = Array.length t.idom - 2 downto 0 do
    if t.idom.(id) = -1 then acc := id :: !acc
  done;
  !acc
