exception Injected of string

type trigger =
  | At_nth of int   (* fire on exactly the n-th hit (1-based) *)
  | First_n of int  (* fire on hits 1..n *)
  | Probability of { p : float; seed : int }

type point = {
  trigger : trigger;
  mutable hits : int;
  mutable lcg : int64;  (* per-point deterministic stream for Probability *)
}

(* The disabled fast path — no failpoints configured — is one atomic
   load, so production hot loops can hit failpoints unconditionally.
   Counters are mutated under [mutex] because shard workers hit
   failpoints from other domains. *)
let armed = Atomic.make false
let mutex = Mutex.create ()
let points : (string, point) Hashtbl.t = Hashtbl.create 8

let reset () =
  Mutex.lock mutex;
  Hashtbl.reset points;
  Atomic.set armed false;
  Mutex.unlock mutex

let set name trigger =
  (match trigger with
  | At_nth n when n < 1 -> invalid_arg "Inject.set: At_nth needs n >= 1"
  | First_n n when n < 1 -> invalid_arg "Inject.set: First_n needs n >= 1"
  | Probability { p; _ } when not (p >= 0.0 && p <= 1.0) ->
    invalid_arg "Inject.set: probability must be in [0, 1]"
  | At_nth _ | First_n _ | Probability _ -> ());
  Mutex.lock mutex;
  let seed = match trigger with Probability { seed; _ } -> seed | _ -> 0 in
  Hashtbl.replace points name
    { trigger; hits = 0; lcg = Int64.of_int ((seed * 2) + 1) };
  Atomic.set armed true;
  Mutex.unlock mutex

let clear name =
  Mutex.lock mutex;
  Hashtbl.remove points name;
  if Hashtbl.length points = 0 then Atomic.set armed false;
  Mutex.unlock mutex

(* Numerical Recipes LCG on the odd-initialised 64-bit state; the top
   53 bits give a uniform float in [0, 1). *)
let next_uniform pt =
  pt.lcg <-
    Int64.add (Int64.mul pt.lcg 6364136223846793005L) 1442695040888963407L;
  let top = Int64.shift_right_logical pt.lcg 11 in
  Int64.to_float top /. 9007199254740992.0

let hit name =
  if Atomic.get armed then begin
    Mutex.lock mutex;
    let fire =
      match Hashtbl.find_opt points name with
      | None -> false
      | Some pt ->
        pt.hits <- pt.hits + 1;
        (match pt.trigger with
        | At_nth n -> pt.hits = n
        | First_n n -> pt.hits <= n
        | Probability { p; _ } -> next_uniform pt < p)
    in
    Mutex.unlock mutex;
    if fire then begin
      if Obs.Metrics.enabled () then Obs.Metrics.incr "robust.injected_failures";
      raise (Injected name)
    end
  end

let hits name =
  Mutex.lock mutex;
  let n = match Hashtbl.find_opt points name with Some pt -> pt.hits | None -> 0 in
  Mutex.unlock mutex;
  n

(* ---- environment wiring --------------------------------------------- *)

let env_var = "LSIQ_FAILPOINTS"

(* Spec grammar: entries separated by ',' or ';', each
   [name=nth:N | first:N | prob:P[:SEED]].  Failpoint names contain
   dots, never '=' or separators. *)
let parse_trigger spec =
  match String.split_on_char ':' spec with
  | [ "nth"; n ] ->
    (match int_of_string_opt n with
    | Some n when n >= 1 -> Ok (At_nth n)
    | Some _ | None -> Error (Printf.sprintf "nth wants a count >= 1, got %S" n))
  | [ "first"; n ] ->
    (match int_of_string_opt n with
    | Some n when n >= 1 -> Ok (First_n n)
    | Some _ | None ->
      Error (Printf.sprintf "first wants a count >= 1, got %S" n))
  | [ "prob"; p ] | [ "prob"; p; _ ] as parts ->
    let seed =
      match parts with
      | [ _; _; s ] -> int_of_string_opt s
      | _ -> Some 0
    in
    (match (float_of_string_opt p, seed) with
    | Some p, Some seed when p >= 0.0 && p <= 1.0 ->
      Ok (Probability { p; seed })
    | _ -> Error (Printf.sprintf "prob wants p in [0,1] and an int seed: %S" spec))
  | _ ->
    Error
      (Printf.sprintf
         "bad trigger %S (want nth:N, first:N or prob:P[:SEED])" spec)

let parse_spec spec =
  let entries =
    String.split_on_char ',' spec
    |> List.concat_map (String.split_on_char ';')
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | entry :: rest ->
      (match String.index_opt entry '=' with
      | None -> Error (Printf.sprintf "entry %S has no '='" entry)
      | Some eq ->
        let name = String.trim (String.sub entry 0 eq) in
        let rhs =
          String.trim
            (String.sub entry (eq + 1) (String.length entry - eq - 1))
        in
        if name = "" then Error (Printf.sprintf "entry %S has no name" entry)
        else
          (match parse_trigger rhs with
          | Ok trigger -> go ((name, trigger) :: acc) rest
          | Error _ as e -> e))
  in
  go [] entries

let init_from_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> Ok ()
  | Some spec ->
    (match parse_spec spec with
    | Ok entries ->
      List.iter (fun (name, trigger) -> set name trigger) entries;
      Ok ()
    | Error _ as e -> e)
