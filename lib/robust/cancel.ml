type reason = Deadline | Requested | Signal of int

(* The [Never] token makes the default path allocation-free and lets
   every engine take a [?cancel] argument without the disabled case
   costing more than one branch. *)
type t =
  | Never
  | Token of {
      flag : bool Atomic.t;
      why : reason option Atomic.t;
      deadline : float option;  (* absolute, on the Obs.Clock.now_s scale *)
      polls_left : int Atomic.t option;  (* fires on the poll that ends it *)
    }

let none = Never

let create ?deadline_s () =
  let deadline =
    match deadline_s with
    | None -> None
    | Some d ->
      if not (0.0 < d) then invalid_arg "Cancel.create: deadline must be > 0";
      Some (Obs.Clock.now_s () +. d)
  in
  Token
    { flag = Atomic.make false; why = Atomic.make None; deadline;
      polls_left = None }

let after_polls n =
  if n < 1 then invalid_arg "Cancel.after_polls: count must be >= 1";
  Token
    { flag = Atomic.make false; why = Atomic.make None; deadline = None;
      polls_left = Some (Atomic.make n) }

let cancel ?(reason = Requested) = function
  | Never -> invalid_arg "Cancel.cancel: the none token cannot be cancelled"
  | Token t ->
    (* First reason wins; the flag is set last so a reader that sees the
       flag also sees the reason. *)
    ignore (Atomic.compare_and_set t.why None (Some reason));
    Atomic.set t.flag true

let stop_requested = function
  | Never -> false
  | Token t ->
    Atomic.get t.flag
    || (match t.deadline with
       | Some d when Obs.Clock.now_s () >= d ->
         ignore (Atomic.compare_and_set t.why None (Some Deadline));
         Atomic.set t.flag true;
         true
       | Some _ | None -> false)
    ||
    match t.polls_left with
    | Some left when Atomic.fetch_and_add left (-1) <= 1 ->
      ignore (Atomic.compare_and_set t.why None (Some Requested));
      Atomic.set t.flag true;
      true
    | Some _ | None -> false

let reason = function Never -> None | Token t -> Atomic.get t.why

let reason_to_string = function
  | Deadline -> "deadline"
  | Requested -> "requested"
  | Signal s ->
    if s = Sys.sigint then "SIGINT"
    else if s = Sys.sigterm then "SIGTERM"
    else Printf.sprintf "signal %d" s
