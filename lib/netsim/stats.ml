module Summary = struct
  type t = { mutable count : int; mutable mean : float; mutable m2 : float }

  let create () = { count = 0; mean = 0.0; m2 = 0.0 }

  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let mean t = t.mean
  let variance t = if t.count < 2 then 0.0 else t.m2 /. float_of_int (t.count - 1)
  let stddev t = sqrt (variance t)
end

module Samples = struct
  type mode = Exact | Reservoir of int

  type t = {
    mode : mode;
    mutable data : floatarray;
    mutable size : int;  (* observations retained in [data] *)
    mutable seen : int;  (* observations offered via [add] *)
    mutable sum : float;
    mutable sorted : floatarray option; (* cache invalidated by [add] *)
    res_rng : Rng.t;  (* reservoir replacement stream; fixed seed for
                         run-to-run determinism *)
  }

  let create ?(mode = Exact) () =
    let initial =
      match mode with
      | Exact -> 16
      | Reservoir capacity ->
          if capacity <= 0 then
            invalid_arg "Stats.Samples.create: reservoir capacity must be > 0";
          Stdlib.min capacity 16
    in
    { mode; data = Float.Array.make initial 0.0; size = 0; seen = 0; sum = 0.0;
      sorted = None; res_rng = Rng.create 0x5EED }

  let store t i x =
    if i >= Float.Array.length t.data then begin
      let bigger = Float.Array.make (2 * Float.Array.length t.data) 0.0 in
      Float.Array.blit t.data 0 bigger 0 t.size;
      t.data <- bigger
    end;
    Float.Array.set t.data i x

  let add t x =
    t.seen <- t.seen + 1;
    t.sum <- t.sum +. x;
    (match t.mode with
    | Exact ->
        store t t.size x;
        t.size <- t.size + 1
    | Reservoir capacity ->
        if t.size < capacity then begin
          store t t.size x;
          t.size <- t.size + 1
        end
        else begin
          (* Algorithm R: keep each of the [seen] observations with equal
             probability capacity/seen. *)
          let j = Rng.int t.res_rng t.seen in
          if j < capacity then Float.Array.set t.data j x
        end);
    t.sorted <- None

  let count t = t.seen
  let retained t = t.size
  let mean t = if t.seen = 0 then 0.0 else t.sum /. float_of_int t.seen

  let sorted t =
    match t.sorted with
    | Some a -> a
    | None ->
        let a = Float.Array.sub t.data 0 t.size in
        Float.Array.sort Float.compare a;
        t.sorted <- Some a;
        a

  let percentile t p =
    if t.size = 0 then invalid_arg "Stats.Samples.percentile: empty";
    if p < 0.0 || p > 100.0 then
      invalid_arg "Stats.Samples.percentile: p out of [0, 100]";
    let a = sorted t in
    let n = Float.Array.length a in
    if n = 1 then Float.Array.get a 0
    else begin
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = Stdlib.min (lo + 1) (n - 1) in
      let frac = rank -. float_of_int lo in
      Float.Array.get a lo
      +. (frac *. (Float.Array.get a hi -. Float.Array.get a lo))
    end

  let median t = percentile t 50.0
end

module P2 = struct
  (* Jain & Chlamtac's P² algorithm: one quantile tracked with five
     markers, O(1) memory and O(1) per observation. *)
  type t = {
    p : float;  (* target, as a fraction in (0, 1) *)
    q : floatarray;  (* marker heights *)
    n : float array;  (* marker positions (1-based counts, stored as float) *)
    np : float array;  (* desired marker positions *)
    dn : float array;  (* desired position increments *)
    mutable count : int;
  }

  let create ~p =
    if p <= 0.0 || p >= 100.0 then
      invalid_arg "Stats.P2.create: p must be in (0, 100)";
    let p = p /. 100.0 in
    { p; q = Float.Array.make 5 0.0;
      n = [| 0.0; 1.0; 2.0; 3.0; 4.0 |];
      np = [| 0.0; 2.0 *. p; 4.0 *. p; 2.0 +. (2.0 *. p); 4.0 |];
      dn = [| 0.0; p /. 2.0; p; (1.0 +. p) /. 2.0; 1.0 |];
      count = 0 }

  let add t x =
    if t.count < 5 then begin
      Float.Array.set t.q t.count x;
      t.count <- t.count + 1;
      if t.count = 5 then Float.Array.sort Float.compare t.q
    end
    else begin
      let q i = Float.Array.get t.q i in
      let k =
        if x < q 0 then begin
          Float.Array.set t.q 0 x;
          0
        end
        else if x >= q 4 then begin
          Float.Array.set t.q 4 x;
          3
        end
        else begin
          let rec find i = if x < q (i + 1) then i else find (i + 1) in
          find 0
        end
      in
      for i = k + 1 to 4 do
        t.n.(i) <- t.n.(i) +. 1.0
      done;
      for i = 0 to 4 do
        t.np.(i) <- t.np.(i) +. t.dn.(i)
      done;
      for i = 1 to 3 do
        let d = t.np.(i) -. t.n.(i) in
        if
          (d >= 1.0 && t.n.(i + 1) -. t.n.(i) > 1.0)
          || (d <= -1.0 && t.n.(i - 1) -. t.n.(i) < -1.0)
        then begin
          let s = if d >= 0.0 then 1.0 else -1.0 in
          let qi = q i and qm = q (i - 1) and qp = q (i + 1) in
          let ni = t.n.(i) and nm = t.n.(i - 1) and np1 = t.n.(i + 1) in
          let parabolic =
            qi
            +. s /. (np1 -. nm)
               *. (((ni -. nm +. s) *. (qp -. qi) /. (np1 -. ni))
                  +. ((np1 -. ni -. s) *. (qi -. qm) /. (ni -. nm)))
          in
          let adjusted =
            if qm < parabolic && parabolic < qp then parabolic
            else if s > 0.0 then qi +. ((qp -. qi) /. (np1 -. ni))
            else qi -. ((qm -. qi) /. (nm -. ni))
          in
          Float.Array.set t.q i adjusted;
          t.n.(i) <- ni +. s
        end
      done;
      t.count <- t.count + 1
    end

  let quantile t =
    if t.count = 0 then invalid_arg "Stats.P2.quantile: empty";
    if t.count >= 5 then Float.Array.get t.q 2
    else begin
      (* Fewer observations than markers: exact interpolated quantile. *)
      let a = Float.Array.sub t.q 0 t.count in
      Float.Array.sort Float.compare a;
      let rank = t.p *. float_of_int (t.count - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = Stdlib.min (lo + 1) (t.count - 1) in
      let frac = rank -. float_of_int lo in
      Float.Array.get a lo
      +. (frac *. (Float.Array.get a hi -. Float.Array.get a lo))
    end
end

let jain_index xs =
  let n = Array.length xs in
  if n = 0 then 1.0
  else begin
    let sum = Array.fold_left ( +. ) 0.0 xs in
    let sum_sq = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
    if sum_sq = 0.0 then 1.0
    else sum *. sum /. (float_of_int n *. sum_sq)
  end
