(* Host speed, measured by a fixed computation of the benchmark's own.

   The benchmark runs on a share of a machine whose speed drifts by tens
   of percent over minutes, so two runs of the same code minutes apart
   can read 20-30% apart in wall and CPU time.  [sample ()] times one run
   of a reference computation that calls nothing in the library: a
   bit-parallel evaluation of a fixed random netlist over boxed [int64]
   words, the same mix of dependent array reads, boxing and minor
   collections as the program's simulators.  The benchmark samples it
   around every timed pass and reports the pass's times multiplied by
   [nominal_s /. sample], i.e. as seconds on a host on which the reference
   takes [nominal_s].  A change to the library cannot move the reference,
   so it moves the scaled times exactly as it moves the raw ones. *)

let nodes = 8192
let inputs = 128
let rounds = 64

(* Roughly one sample on an idle 2-vCPU Xeon KVM guest; any constant
   would do, it only keeps the scaled times near raw seconds. *)
let nominal_s = 0.023

let kinds, fanins =
  let st = Random.State.make [| 0x5eed |] in
  let kinds = Array.init nodes (fun _ -> Random.State.int st 6) in
  let fanins =
    Array.init nodes (fun id ->
        if id < inputs then [||]
        else Array.init (2 + Random.State.int st 3) (fun _ -> Random.State.int st id))
  in
  (kinds, fanins)

(* Kinds 0-5: AND, NAND, OR, NOR, XOR, XNOR. *)
let eval values =
  for id = inputs to nodes - 1 do
    let srcs = fanins.(id) and kind = kinds.(id) in
    let acc = ref values.(srcs.(0)) in
    for i = 1 to Array.length srcs - 1 do
      let v = values.(srcs.(i)) in
      acc :=
        if kind < 2 then Int64.logand !acc v
        else if kind < 4 then Int64.logor !acc v
        else Int64.logxor !acc v
    done;
    values.(id) <- (if kind land 1 = 1 then Int64.lognot !acc else !acc)
  done

(* The reference computation; its result is the same on every call. *)
let work () =
  let values = Array.make nodes 0L in
  let x = ref 0x2545F4914F6CDD1DL and sum = ref 0L in
  for _ = 1 to rounds do
    for i = 0 to inputs - 1 do
      (* xorshift64 *)
      x := Int64.logxor !x (Int64.shift_left !x 13);
      x := Int64.logxor !x (Int64.shift_right_logical !x 7);
      x := Int64.logxor !x (Int64.shift_left !x 17);
      values.(i) <- !x
    done;
    eval values;
    sum := Int64.add !sum values.(nodes - 1)
  done;
  !sum

let expected = lazy (work ())

(* Seconds one run of the reference takes now; fails if its result
   ever differs, which would mean the host miscomputes. *)
let sample () =
  let expected = Lazy.force expected in
  let t0 = Obs.Clock.now_s () in
  let r = work () in
  let dt = Obs.Clock.now_s () -. t0 in
  if r <> expected then failwith "Calib.sample: reference result changed";
  dt
