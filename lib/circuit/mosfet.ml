type region = Cutoff | Triode | Saturation

type eval = {
  ids : float;
  gm : float;
  gds : float;
  gmb : float;
  region : region;
}

let[@inline] vt_body (p : Process.mos_params) ~vbs =
  (* vbs <= 0 increases vt; clamp the forward-bias side to keep sqrt real *)
  let arg = Float.max 0.0 (p.phi -. vbs) in
  p.vt0 +. (p.gamma *. (sqrt arg -. sqrt p.phi))

let[@inline] dvt_dvbs (p : Process.mos_params) ~vbs =
  let arg = p.phi -. vbs in
  if arg <= 1e-9 then 0.0 else -.p.gamma /. (2.0 *. sqrt arg)

(* [eval_into]'s array: the terminal voltages in, the current and its
   partials out. *)
let i_vgs = 0
let i_vds = 1
let i_vbs = 2
let o_ids = 3
let o_gm = 4
let o_gds = 5
let o_gmb = 6

(* NMOS equations assuming vds >= 0: ids and the raw partials into [io].
   Every helper down from [eval_into] is inlined, so no float is boxed. *)
let[@inline] eval_nmos_fwd (p : Process.mos_params) ~w ~l ~vgs ~vds ~vbs (io : float array) =
  let vt = vt_body p ~vbs in
  let dvt = dvt_dvbs p ~vbs in
  let vov = vgs -. vt in
  let beta = p.kp *. w /. l in
  (* [Process.lambda_of] written out: its float result would be boxed *)
  let lam = p.lambda_l /. l in
  if vov <= 0.0 then begin
    io.(o_ids) <- 0.0;
    io.(o_gm) <- 0.0;
    io.(o_gds) <- 0.0;
    io.(o_gmb) <- 0.0;
    Cutoff
  end
  else if vds < vov then begin
    (* triode *)
    let clm = 1.0 +. (lam *. vds) in
    let core = (vov *. vds) -. (0.5 *. vds *. vds) in
    io.(o_ids) <- beta *. core *. clm;
    io.(o_gm) <- beta *. vds *. clm;
    io.(o_gds) <- (beta *. (vov -. vds) *. clm) +. (beta *. core *. lam);
    (* vov depends on vt(vbs): d ids/d vbs = beta*vds*clm * (-dvt) *)
    io.(o_gmb) <- beta *. vds *. clm *. -.dvt;
    Triode
  end
  else begin
    (* saturation *)
    let clm = 1.0 +. (lam *. vds) in
    let gm = beta *. vov *. clm in
    io.(o_ids) <- 0.5 *. beta *. vov *. vov *. clm;
    io.(o_gm) <- gm;
    io.(o_gds) <- 0.5 *. beta *. vov *. vov *. lam;
    io.(o_gmb) <- gm *. -.dvt;
    Saturation
  end

(* Handle vds < 0 by terminal swap: with vgd = vgs - vds playing the role
   of vgs, vbd playing vbs, and the current reversed. Chain rule gives the
   partials with respect to the *original* vgs/vds/vbs. *)
let[@inline] eval_nmos (p : Process.mos_params) ~w ~l ~vgs ~vds ~vbs (io : float array) =
  if vds >= 0.0 then eval_nmos_fwd p ~w ~l ~vgs ~vds ~vbs io
  else begin
    let region =
      eval_nmos_fwd p ~w ~l ~vgs:(vgs -. vds) ~vds:(-.vds) ~vbs:(vbs -. vds) io
    in
    io.(o_ids) <- -.io.(o_ids);
    io.(o_gds) <- io.(o_gm) +. io.(o_gds) +. io.(o_gmb);
    region
  end

let eval_into (p : Process.mos_params) polarity ~w ~l (io : float array) =
  if w <= 0.0 || l <= 0.0 then invalid_arg "Mosfet.eval: non-positive geometry";
  let vgs = io.(i_vgs) and vds = io.(i_vds) and vbs = io.(i_vbs) in
  match polarity with
  | Process.Nmos -> eval_nmos p ~w ~l ~vgs ~vds ~vbs io
  | Process.Pmos ->
    (* reflect: I_p(vgs,vds,vbs) = -I_n(-vgs,-vds,-vbs); partials keep sign *)
    let region = eval_nmos p ~w ~l ~vgs:(-.vgs) ~vds:(-.vds) ~vbs:(-.vbs) io in
    io.(o_ids) <- -.io.(o_ids);
    region

let eval p polarity ~w ~l ~vgs ~vds ~vbs =
  let io = [| vgs; vds; vbs; 0.0; 0.0; 0.0; 0.0 |] in
  let region = eval_into p polarity ~w ~l io in
  { ids = io.(o_ids); gm = io.(o_gm); gds = io.(o_gds); gmb = io.(o_gmb); region }

let threshold p polarity ~vbs =
  match polarity with
  | Process.Nmos -> vt_body p ~vbs
  | Process.Pmos -> -.vt_body p ~vbs:(-.vbs)

type caps = { cgs : float; cgd : float; cgb : float; cdb : float; csb : float }

let capacitances (p : Process.mos_params) ~w ~l region =
  let cox_total = p.cox *. w *. l in
  let cov = p.cov *. w in
  let cj = p.cj *. w *. p.ldiff in
  match region with
  | Cutoff -> { cgs = cov; cgd = cov; cgb = cox_total; cdb = cj; csb = cj }
  | Triode ->
    {
      cgs = (0.5 *. cox_total) +. cov;
      cgd = (0.5 *. cox_total) +. cov;
      cgb = 0.0;
      cdb = cj;
      csb = cj;
    }
  | Saturation ->
    {
      cgs = (2.0 /. 3.0 *. cox_total) +. cov;
      cgd = cov;
      cgb = 0.0;
      cdb = cj;
      csb = cj;
    }

let vdsat p polarity ~vgs ~vbs =
  match polarity with
  | Process.Nmos -> Float.max 0.0 (vgs -. vt_body p ~vbs)
  | Process.Pmos -> Float.max 0.0 (-.vgs -. vt_body p ~vbs:(-.vbs))
