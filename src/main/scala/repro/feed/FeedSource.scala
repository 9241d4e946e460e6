package repro.feed

import repro.data.Tweet

/** The intake-job front end: the paper's feed *adapter* + round-robin
  * partitioner, reduced to a single node. It turns a finite tweet sequence
  * into fixed-size frames, optionally throttled to an arrival rate, and
  * feeds them into a passive [[PartitionHolder]] from which computing jobs
  * pull.
  *
  * A socket server is deliberately not used: the experiments need a
  * deterministic, rate-controllable source, and the adapter's job (bytes in,
  * frames out) is fully exercised by the queue hand-off.
  */
final class FeedSource(
    tweets: Seq[Tweet],
    batchSize: Int,
    ratePerSec: Option[Double] = None) {

  require(batchSize > 0, s"batchSize must be positive, got $batchSize")

  /** Start the intake thread: frames are pushed until the source is
    * exhausted, then the holder is closed (EOF). Returns the running thread
    * so callers can join it.
    *
    * With a rate, records arrive on an absolute schedule from the thread's
    * start `t0`: frame `i` is pushed once its last record has arrived, at
    * `t0 + (i + 1) * batchSize / rate` (the final, partial frame at
    * `t0 + n / rate`). Time spent pushing or oversleeping is made up on the
    * next frame instead of accumulating, so the feed keeps its rate.
    */
  def start(holder: PartitionHolder[Seq[Tweet]]): Thread = {
    val t = new Thread(() => {
      val t0 = System.nanoTime()
      var arrived = 0L
      tweets.grouped(batchSize).foreach { frame =>
        arrived += frame.size
        ratePerSec.foreach { r =>
          val waitNanos = t0 + (arrived * 1e9 / r).toLong - System.nanoTime()
          if (waitNanos > 0) Thread.sleep(waitNanos / 1000000, (waitNanos % 1000000).toInt)
        }
        holder.push(frame)
      }
      holder.close()
    }, s"feed-intake-${System.identityHashCode(this)}")
    t.setDaemon(true)
    t.start()
    t
  }
}
