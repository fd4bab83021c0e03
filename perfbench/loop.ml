(* The closed loop of the in-process workloads, and the windowed
   statistics every workload reports. *)

let windows = 10

(* Operations per second from [c0], given completion instants: the
   completions are cut into [windows] runs of equal count, each run's
   rate is its count over the time it took, and the median run rate is
   reported — a burst of outside load in one window does not move it. *)
let window_rate ~c0 completions =
  let t = Array.of_list completions in
  Array.sort compare t;
  let n = Array.length t in
  let rates = Timing.samples () in
  let prev = ref c0 in
  for w = 0 to windows - 1 do
    let lo = w * n / windows and hi = ((w + 1) * n / windows) - 1 in
    if hi >= lo then begin
      Timing.push rates (float_of_int (hi - lo + 1) /. (t.(hi) -. !prev));
      prev := t.(hi)
    end
  done;
  Timing.median rates

(* The median of [windows] runs of equal count of [lat] (latencies in
   completion order), each run's own median: like the window rate, a
   stretch of outside load in one window does not move it. *)
let window_median lat =
  let n = Array.length lat in
  let medians = Timing.samples () in
  for w = 0 to windows - 1 do
    let lo = w * n / windows and hi = (w + 1) * n / windows in
    if hi > lo then begin
      let run = Array.sub lat lo (hi - lo) in
      Array.sort compare run;
      Timing.push medians (Timing.pct run 0.5)
    end
  done;
  Timing.median medians

(* Closed loop for [seconds]: the next operation starts when the last
   one ends.  Returns the latencies and the windowed throughput. *)
let closed ~seconds op =
  let lat = Timing.samples () in
  let completions = ref [] in
  let c0 = Timing.now () in
  let stop = c0 +. seconds in
  let t = ref c0 in
  while !t < stop do
    (match op () with
    | Some e ->
        Timing.push lat (e -. !t);
        completions := e :: !completions
    | None -> ());
    t := Timing.now ()
  done;
  (lat, window_rate ~c0 !completions)
