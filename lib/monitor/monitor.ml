type kind =
  | Adc of { sample_period : float }
  | Comparator of { latency : float }

type thresholds = { v_backup : float; v_on : float }

type event = Backup | Wake

type arm = Watch_backup | Watch_wake

type t = {
  kind : kind;
  th : thresholds;
  mutable enabled : bool;
  mutable arm : arm;
  mutable last_tick : float;  (* last ADC sample time *)
  mutable cond_since : float option;  (* comparator: condition onset time *)
  mutable observations : int;
  mutable fires : int;
  mutable on_event : time:float -> event -> unit;
}

let no_hook ~time:_ _ = ()

let create kind th =
  if th.v_on <= th.v_backup then
    invalid_arg "Monitor.create: v_on must exceed v_backup";
  {
    kind;
    th;
    enabled = true;
    arm = Watch_backup;
    last_tick = 0.;
    cond_since = None;
    observations = 0;
    fires = 0;
    on_event = no_hook;
  }

let copy t = { t with enabled = t.enabled }

let kind t = t.kind
let thresholds t = t.th
let enabled t = t.enabled

let set_enabled t e =
  t.enabled <- e;
  if not e then t.cond_since <- None

let arm_backup t =
  t.arm <- Watch_backup;
  t.cond_since <- None

let arm_wake t =
  t.arm <- Watch_wake;
  t.cond_since <- None

let reset t = t.cond_since <- None

let sync t ~time =
  t.last_tick <- time;
  t.cond_since <- None

(* The worst-case disturbed reading the armed condition can latch onto:
   an attacker-induced swing of +/- disturbance around the true voltage. *)
let condition_holds t ~v_true ~disturbance =
  match t.arm with
  | Watch_backup -> v_true -. disturbance < t.th.v_backup
  | Watch_wake -> v_true +. disturbance >= t.th.v_on

let event_of_arm = function Watch_backup -> Backup | Watch_wake -> Wake

let set_on_event t f = t.on_event <- f
let observations t = t.observations
let fires t = t.fires

let observe_armed t ~time ~v_true ~disturbance =
  if not t.enabled then None
  else
    match t.kind with
    | Adc { sample_period } ->
        if time -. t.last_tick >= sample_period then begin
          t.last_tick <- time;
          if condition_holds t ~v_true ~disturbance then
            Some (event_of_arm t.arm)
          else None
        end
        else None
    | Comparator { latency } ->
        if condition_holds t ~v_true ~disturbance then begin
          match t.cond_since with
          | None ->
              t.cond_since <- Some time;
              if latency <= 0. then Some (event_of_arm t.arm) else None
          | Some t0 ->
              if time -. t0 >= latency then begin
                t.cond_since <- None;
                Some (event_of_arm t.arm)
              end
              else None
        end
        else begin
          t.cond_since <- None;
          None
        end

(* Earliest future time at which [observe] could do anything other than
   return [None] without touching its state.  Lets the machine skip the
   per-instruction call entirely between ADC samples. *)
let next_sample_time t =
  if not t.enabled then infinity
  else
    match t.kind with
    | Adc { sample_period } -> t.last_tick +. sample_period
    | Comparator _ -> neg_infinity

(* Batched-integration entry point for block-level dispatch: [true] when
   every [observe] over a stretch whose true voltage stays at or above
   [v_min] (with constant [disturbance]) is guaranteed to return [None]
   without changing any state an [observe]/[next_sample_time] sequence
   could later act on, so the per-instruction calls may be skipped
   wholesale.  For the comparator that means: armed on backup, no
   pending condition onset, and the worst-case disturbed reading still
   above the backup threshold — each skipped observe would have taken
   the condition-false branch, which resets [cond_since] to the [None]
   it already is; the caller counts the skipped calls with [skip].  The
   ADC kind is paced by [next_sample_time] instead and always answers
   [false] here. *)
let quiescent t ~v_min ~disturbance =
  (not t.enabled)
  ||
  match t.kind with
  | Adc _ -> false
  | Comparator _ ->
      t.arm = Watch_backup && t.cond_since = None
      && v_min -. disturbance >= t.th.v_backup

let skip t n = t.observations <- t.observations + n

let observe t ~time ~v_true ~disturbance =
  t.observations <- t.observations + 1;
  match observe_armed t ~time ~v_true ~disturbance with
  | Some ev as r ->
      t.fires <- t.fires + 1;
      t.on_event ~time ev;
      r
  | None -> None
