module Vec = Adc_numerics.Vec
module Tally = Adc_numerics.Tally

type waveforms = { times : float array; data : float array array }

type lte = {
  reltol : float;
  abstol : float;
  max_growth : float;
  dt_max_factor : float;
  dt_min_factor : float;
}

type control = Fixed | Lte of lte

let default_lte =
  {
    reltol = 1e-5;
    abstol = 1e-9;
    max_growth = 2.5;
    dt_max_factor = 16.0;
    dt_min_factor = 1e-6;
  }

(* process-wide counts for live metrics: summed over every run
   (successful or not) on any domain *)
let runs = Tally.make "solver.transient_runs_total"
let newton_total = Tally.make "solver.newton_iterations_total"
let accepted_total = Tally.make "solver.transient_accepted_steps_total"
let rejected_total = Tally.make "solver.transient_rejected_steps_total"

let run ?x0 ?(max_newton = 60) ?(control = Lte default_lte) nl ~t_stop ~dt =
  (* [> 0.0] is false on NaN; infinities would leave a one-point grid *)
  if not (dt > 0.0 && t_stop > 0.0 && Float.is_finite dt && Float.is_finite t_stop)
  then invalid_arg "Transient.run: bad time parameters";
  let ctx = Mna.context nl in
  let x0 =
    match x0 with
    | Some x -> Ok (Vec.copy x)
    | None -> begin
      match Dc.solve ~time:0.0 ~ctx nl with
      | Ok r -> Ok r.x
      | Error e -> Error ("Transient.run: initial DC failed: " ^ e)
    end
  in
  match x0 with
  | Error e -> Error e
  | Ok x0 ->
    let n_caps = Mna.cap_count nl in
    let n_steps = int_of_float (Float.ceil (t_stop /. dt)) in
    let t_end = float_of_int n_steps *. dt in
    let v_of x node = Mna.node_voltage_of x node in
    (* capacitor history: voltage difference and branch current at the
       previous accepted time point *)
    let cap_v = Array.make n_caps 0.0 in
    let cap_i = Array.make n_caps 0.0 in
    let cap_nodes = Array.make n_caps (0, 0, 0.0) in
    let k = ref 0 in
    List.iter
      (fun d ->
        match d with
        | Netlist.Capacitor { np; nn; farads; _ } ->
          cap_nodes.(!k) <- (np, nn, farads);
          cap_v.(!k) <- v_of x0 np -. v_of x0 nn;
          incr k
        | Netlist.Resistor _ | Netlist.Vsource _ | Netlist.Isource _
        | Netlist.Vcvs _ | Netlist.Mos _ | Netlist.Switch _ -> ())
      (Netlist.devices nl);
    let times = Array.init (n_steps + 1) (fun i -> float_of_int i *. dt) in
    let data = Array.make (n_steps + 1) [||] in
    data.(0) <- Vec.copy x0;
    let newton_iters = ref 0 in
    let accepted = ref 0 in
    let rejected = ref 0 in
    let error = ref None in
    (* one implicit step: solve the circuit at [t] with step size [h],
       backward Euler when [be], trapezoidal otherwise *)
    (* the companion model of every capacitor, filled once per step
       attempt and read by every Newton iteration of that attempt *)
    let geq = Array.make n_caps 0.0 and ieq = Array.make n_caps 0.0 in
    let companion = Mna.Cap_companion { geq; ieq } in
    let solve_step ~be ~h ~t ~x_guess =
      for ci = 0 to n_caps - 1 do
        let _, _, farads = cap_nodes.(ci) in
        let g = if be then farads /. h else 2.0 *. farads /. h in
        geq.(ci) <- g;
        ieq.(ci) <- (if be then -.g *. cap_v.(ci) else -.((g *. cap_v.(ci)) +. cap_i.(ci)))
      done;
      Dc.newton ~max_iter:max_newton ~vstep_limit:3.3 ~ctx
        ~x0:x_guess ~time:t ~source_scale:1.0 ~gmin:1e-12 ~cap_policy:companion nl
    in
    let advance_caps ~be ~h x' =
      Array.iteri
        (fun ci (np, nn, farads) ->
          let vd = v_of x' np -. v_of x' nn in
          let i_new =
            if be then farads /. h *. (vd -. cap_v.(ci))
            else (2.0 *. farads /. h *. (vd -. cap_v.(ci))) -. cap_i.(ci)
          in
          cap_v.(ci) <- vd;
          cap_i.(ci) <- i_new)
        cap_nodes
    in
    (match control with
    | Fixed ->
      (* historical behavior: the grid points are the integration points *)
      let x = ref x0 in
      let si = ref 1 in
      while !error = None && !si <= n_steps do
        let t = times.(!si) in
        let be = !si = 1 in
        (match solve_step ~be ~h:dt ~t ~x_guess:!x with
        | Error e ->
          error := Some (Printf.sprintf "Transient.run: t=%.4g: %s" t e)
        | Ok (x', it) ->
          newton_iters := !newton_iters + it;
          advance_caps ~be ~h:dt x';
          x := x';
          data.(!si) <- Vec.copy x';
          incr accepted);
        incr si
      done
    | Lte c ->
      let n = Netlist.unknown_count nl in
      let tiny = dt *. 1e-9 in
      let h_min = dt *. c.dt_min_factor in
      let h_max = dt *. c.dt_max_factor in
      let devices = Netlist.devices nl in
      let waves =
        List.filter_map
          (function
            | Netlist.Vsource { wave; _ } | Netlist.Isource { wave; _ } ->
              Some wave
            | _ -> None)
          devices
      in
      let switch_fns =
        List.filter_map
          (function Netlist.Switch { closed_at; _ } -> Some closed_at | _ -> None)
          devices
      in
      let switch_states t = List.map (fun f -> f t) switch_fns in
      let next_source_bp t =
        List.fold_left
          (fun acc w ->
            match (acc, Stimulus.next_breakpoint w ~after:t) with
            | None, b -> b
            | a, None -> a
            | Some a, Some b -> Some (Float.min a b))
          None waves
      in
      (* last accepted points of the current smooth segment, oldest first;
         reset to one point at every derivative discontinuity *)
      let hist_t = Array.make 4 0.0 in
      let hist_x = Array.make 4 x0 in
      let hist_len = ref 1 in
      let t_cur = ref 0.0 in
      let x_cur = ref x0 in
      let st_cur = ref (switch_states 0.0) in
      let out_idx = ref 1 in
      let h = ref dt in
      let consecutive_rejects = ref 0 in
      (* trapezoidal LTE ~ h^3 x'''/12, with x''' from the third divided
         difference over the last four accepted points *)
      let lte_ratio ~h ~t_next ~x_new =
        let l = !hist_len in
        let t0 = hist_t.(l - 3) and t1 = hist_t.(l - 2) and t2 = hist_t.(l - 1) in
        let y0 = hist_x.(l - 3) and y1 = hist_x.(l - 2) and y2 = hist_x.(l - 1) in
        let worst = ref 0.0 in
        for i = 0 to n - 1 do
          let f01 = (y1.(i) -. y0.(i)) /. (t1 -. t0) in
          let f12 = (y2.(i) -. y1.(i)) /. (t2 -. t1) in
          let f23 = (x_new.(i) -. y2.(i)) /. (t_next -. t2) in
          let f012 = (f12 -. f01) /. (t2 -. t0) in
          let f123 = (f23 -. f12) /. (t_next -. t1) in
          let f0123 = (f123 -. f012) /. (t_next -. t0) in
          let err = h *. h *. h *. Float.abs f0123 /. 2.0 in
          let tau =
            (c.reltol *. Float.max (Float.abs x_new.(i)) (Float.abs y2.(i)))
            +. c.abstol
          in
          let r = err /. tau in
          if r > !worst then worst := r
        done;
        !worst
      in
      let interpolate tg ~t_next ~x_new =
        let out = Vec.create n in
        let l = !hist_len in
        if l >= 2 then begin
          let t0 = hist_t.(l - 2) and t1 = hist_t.(l - 1) in
          let y0 = hist_x.(l - 2) and y1 = hist_x.(l - 1) in
          let l0 = (tg -. t1) *. (tg -. t_next) /. ((t0 -. t1) *. (t0 -. t_next)) in
          let l1 = (tg -. t0) *. (tg -. t_next) /. ((t1 -. t0) *. (t1 -. t_next)) in
          let l2 = (tg -. t0) *. (tg -. t1) /. ((t_next -. t0) *. (t_next -. t1)) in
          for i = 0 to n - 1 do
            out.(i) <- (l0 *. y0.(i)) +. (l1 *. y1.(i)) +. (l2 *. x_new.(i))
          done
        end
        else begin
          let t0 = hist_t.(l - 1) in
          let y0 = hist_x.(l - 1) in
          let a = (tg -. t0) /. (t_next -. t0) in
          for i = 0 to n - 1 do
            out.(i) <- ((1.0 -. a) *. y0.(i)) +. (a *. x_new.(i))
          done
        end;
        out
      in
      hist_t.(0) <- 0.0;
      hist_x.(0) <- x0;
      while !error = None && !t_cur < t_end -. tiny do
        (* propose a step: controller h, clamped to [h_min, h_max], held
           at the grid dt while the segment history is too young for an
           LTE estimate (mirrors the fixed-dt BE start-up), and cut at
           t_end, source breakpoints and switch flips *)
        let h_prop = Float.min (Float.max !h h_min) h_max in
        let h_prop = if !hist_len < 3 then Float.min h_prop dt else h_prop in
        let h_prop =
          if !t_cur +. h_prop > t_end then t_end -. !t_cur else h_prop
        in
        let h_prop, hit_bp =
          match next_source_bp !t_cur with
          | Some b when b <= !t_cur +. h_prop +. tiny && b > !t_cur +. tiny ->
            (b -. !t_cur, true)
          | _ -> (h_prop, false)
        in
        let h_prop, hit_flip =
          if switch_states (!t_cur +. h_prop) <> !st_cur then begin
            let lo = ref !t_cur and hi = ref (!t_cur +. h_prop) in
            for _ = 1 to 60 do
              let mid = 0.5 *. (!lo +. !hi) in
              if switch_states mid <> !st_cur then hi := mid else lo := mid
            done;
            (* step to the last pre-flip instant when it is meaningfully
               ahead (so grid points before the flip never interpolate
               across it), otherwise take a sliver step across the flip *)
            if !lo -. !t_cur > tiny then (!lo -. !t_cur, true)
            else
              (* sliver across the flip; floored at h_min so companion
                 conductances (~C/h) stay in floating-point range *)
              (Float.max (!hi -. !t_cur) h_min, true)
          end
          else (h_prop, false)
        in
        let h_step = h_prop in
        let t_next = !t_cur +. h_step in
        let be = !hist_len < 2 in
        match solve_step ~be ~h:h_step ~t:t_next ~x_guess:!x_cur with
        | Error e ->
          incr rejected;
          incr consecutive_rejects;
          if h_step <= h_min *. 1.000001 || !consecutive_rejects > 80 then
            error :=
              Some (Printf.sprintf "Transient.run: t=%.4g: %s" t_next e)
          else h := h_step /. 4.0
        | Ok (x_new, it) ->
          newton_iters := !newton_iters + it;
          let do_lte = (not be) && (not hit_bp) && (not hit_flip) && !hist_len >= 3 in
          let r = if do_lte then lte_ratio ~h:h_step ~t_next ~x_new else 0.0 in
          if do_lte && r > 1.0 && h_step > h_min *. 1.000001 then begin
            (* too much truncation error: shrink and retry *)
            incr rejected;
            incr consecutive_rejects;
            h := h_step *. Float.max 0.2 (0.9 *. (r ** (-1.0 /. 3.0)))
          end
          else begin
            consecutive_rejects := 0;
            advance_caps ~be ~h:h_step x_new;
            (* dense output onto the caller's grid *)
            while
              !out_idx <= n_steps && times.(!out_idx) <= t_next +. tiny
            do
              data.(!out_idx) <- interpolate times.(!out_idx) ~t_next ~x_new;
              incr out_idx
            done;
            if !hist_len = 4 then begin
              for i = 0 to 2 do
                hist_t.(i) <- hist_t.(i + 1);
                hist_x.(i) <- hist_x.(i + 1)
              done;
              hist_len := 3
            end;
            hist_t.(!hist_len) <- t_next;
            hist_x.(!hist_len) <- x_new;
            incr hist_len;
            t_cur := t_next;
            x_cur := x_new;
            incr accepted;
            st_cur := switch_states t_next;
            if hit_bp || hit_flip then begin
              (* derivative discontinuity: restart the integrator here *)
              hist_t.(0) <- t_next;
              hist_x.(0) <- x_new;
              hist_len := 1;
              h := Float.min !h dt
            end
            else if do_lte then
              h :=
                h_step
                *. Float.min c.max_growth
                     (Float.max 0.3
                        (0.9 *. (Float.max r 1e-8 ** (-1.0 /. 3.0))))
            else h := h_step *. 2.0
          end
      done;
      (* numeric slack at t_end can leave the last grid point unfilled *)
      if !error = None then
        while !out_idx <= n_steps do
          data.(!out_idx) <- Vec.copy !x_cur;
          incr out_idx
        done);
    Tally.incr runs;
    Tally.add newton_total !newton_iters;
    Tally.add accepted_total !accepted;
    Tally.add rejected_total !rejected;
    match !error with Some e -> Error e | None -> Ok { times; data }

let node_waveform _nl { times; data } node =
  let idx = Netlist.node_index node in
  Array.mapi
    (fun i t -> (t, if idx = 0 then 0.0 else data.(i).(idx - 1)))
    times

let final_voltage nl w node =
  let wf = node_waveform nl w node in
  snd wf.(Array.length wf - 1)

let settling_time nl w node ~target ~tol =
  let wf = node_waveform nl w node in
  let n = Array.length wf in
  if Float.abs (snd wf.(n - 1) -. target) > tol then None
  else begin
    let rec go i =
      if i < 0 then Some (fst wf.(0))
      else if Float.abs (snd wf.(i) -. target) > tol then
        if i = n - 1 then None else Some (fst wf.(i + 1))
      else go (i - 1)
    in
    go (n - 1)
  end
