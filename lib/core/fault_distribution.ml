type t = { yield_ : float; n0 : float }

let create ~yield_ ~n0 =
  if not (0.0 <= yield_ && yield_ <= 1.0) then
    invalid_arg "Fault_distribution.create: yield outside [0,1]";
  if not (1.0 <= n0) then invalid_arg "Fault_distribution.create: n0 must be >= 1";
  { yield_; n0 }

let conditional t = Stats.Dist.Shifted_poisson.create t.n0

let p t n =
  if n < 0 then 0.0
  else if n = 0 then t.yield_
  else (1.0 -. t.yield_) *. Stats.Dist.Shifted_poisson.pmf (conditional t) n

let average_faults t = (1.0 -. t.yield_) *. t.n0

let mean_conditional t = t.n0

let cdf t n =
  if n < 0 then 0.0
  else t.yield_ +. ((1.0 -. t.yield_) *. Stats.Dist.Shifted_poisson.cdf (conditional t) n)

let sample t rng =
  if Stats.Rng.uniform rng < t.yield_ then 0
  else Stats.Dist.Shifted_poisson.sample (conditional t) rng

let total_mass t ~upto =
  let acc = ref 0.0 in
  for n = 0 to upto do
    acc := !acc +. p t n
  done;
  !acc
