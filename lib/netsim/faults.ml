type scope = All | Domain of int | Pair of int * int

type window = { from_ : float; until : float; scope : scope }

type t = {
  rng : Rng.t;
  loss : float;
  jitter : float;
  pair_loss : (int * int, float) Hashtbl.t; (* normalised (min, max) key *)
  mutable windows : window list;
  mutable losses : int;
  mutable blocked : int;
  drops : Drop.t option;
}

let check_probability name p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Faults: %s must be in [0, 1]" name)

let create ~rng ?(loss = 0.0) ?(jitter = 0.0) ?drops () =
  check_probability "loss" loss;
  if jitter < 0.0 then invalid_arg "Faults.create: negative jitter";
  { rng; loss; jitter; pair_loss = Hashtbl.create 8; windows = [];
    losses = 0; blocked = 0; drops }

let loss t = t.loss

let pair_key a b = (min a b, max a b)

let set_pair_loss t ~a ~b p =
  check_probability "pair loss" p;
  Hashtbl.replace t.pair_loss (pair_key a b) p

let add_window t ~from_ ~until scope =
  if from_ > until then invalid_arg "Faults.add_window: from_ > until";
  t.windows <- { from_; until; scope } :: t.windows

let flap t ~at ~duration ~domain =
  if duration < 0.0 then invalid_arg "Faults.flap: negative duration";
  add_window t ~from_:at ~until:(at +. duration) (Domain domain)

let partition t ~from_ ~until ~a ~b = add_window t ~from_ ~until (Pair (a, b))

let window_matches w ~now ~src ~dst =
  now >= w.from_ && now < w.until
  &&
  match w.scope with
  | All -> true
  | Domain d -> src = d || dst = d
  | Pair (a, b) -> (src = a && dst = b) || (src = b && dst = a)

let pair_probability t ~src ~dst =
  match Hashtbl.find_opt t.pair_loss (pair_key src dst) with
  | Some p -> p
  | None -> t.loss

let drops_message t ~now ~src ~dst =
  if List.exists (window_matches ~now ~src ~dst) t.windows then begin
    t.blocked <- t.blocked + 1;
    true
  end
  else
    let p = pair_probability t ~src ~dst in
    (* p = 0 takes no draw, so a zero-loss model never perturbs the
       random stream (bit-reproducibility of loss-free runs). *)
    p > 0.0
    && Rng.bernoulli t.rng ~p
    &&
    (t.losses <- t.losses + 1;
     Option.iter
       (fun d -> Drop.record d ~node:(-1) Drop.Cp_message_loss)
       t.drops;
     true)

let extra_delay t =
  if t.jitter <= 0.0 then 0.0 else Rng.uniform t.rng ~lo:0.0 ~hi:t.jitter

let losses t = t.losses
let blocked t = t.blocked

type retry = { rto : float; backoff : float; budget : int }

let retry ?(rto = 0.5) ?(backoff = 2.0) ?(budget = 3) () =
  if rto <= 0.0 then invalid_arg "Faults.retry: rto must be positive";
  if backoff < 1.0 then invalid_arg "Faults.retry: backoff must be >= 1";
  if budget < 0 then invalid_arg "Faults.retry: negative budget";
  { rto; backoff; budget }

let retry_delay r ~attempt =
  if attempt < 1 then invalid_arg "Faults.retry_delay: attempt is 1-based";
  r.rto *. (r.backoff ** float_of_int (attempt - 1))
