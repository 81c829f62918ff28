let poisson ~engine ~rng ~rate ~duration ~f =
  if rate <= 0.0 then invalid_arg "Arrivals.poisson: rate must be positive";
  if duration <= 0.0 then invalid_arg "Arrivals.poisson: duration must be positive";
  let rec generate acc elapsed =
    let elapsed = elapsed +. Netsim.Rng.exponential rng ~mean:(1.0 /. rate) in
    if elapsed >= duration then List.rev acc else generate (elapsed :: acc) elapsed
  in
  let times = generate [] 0.0 in
  List.iteri
    (fun i delay -> ignore (Netsim.Engine.schedule engine ~delay (fun () -> f i)))
    times;
  List.length times

let poisson_stream ~engine ~rng ~rate ~duration ~f =
  if rate <= 0.0 then invalid_arg "Arrivals.poisson_stream: rate must be positive";
  if duration <= 0.0 then
    invalid_arg "Arrivals.poisson_stream: duration must be positive";
  let start = Netsim.Engine.now engine in
  (* Self-scheduling chain: each arrival draws the next gap and schedules
     one event, so the engine heap holds O(1) pending arrivals instead of
     the whole window, and neither the gap list nor a per-arrival closure
     is allocated.  The draw sequence — and hence every arrival time — is
     identical to [poisson] with the same stream. *)
  let index = ref 0 in
  let elapsed = ref 0.0 in
  let rec fire () =
    let i = !index in
    incr index;
    schedule_next ();
    f i
  and schedule_next () =
    let e = !elapsed +. Netsim.Rng.exponential rng ~mean:(1.0 /. rate) in
    elapsed := e;
    if e < duration then
      ignore (Netsim.Engine.schedule_at engine ~time:(start +. e) fire)
  in
  schedule_next ()
